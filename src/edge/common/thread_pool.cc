#include "edge/common/thread_pool.h"

#include <atomic>
#include <exception>

#include "edge/common/check.h"
#include "edge/common/stopwatch.h"
#include "edge/fault/fault.h"
#include "edge/obs/metrics.h"

namespace edge {

namespace {

/// Pool-wide instruments, cached once: worker loops run one atomic add per
/// task, never a registry lookup. Tasks here are coarse (ParallelFor drain
/// closures spanning many chunks), so the accounting is noise-level.
obs::Counter* TasksExecutedCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("edge.common.threadpool.tasks_executed");
  return counter;
}

obs::Counter* BusyMicrosCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("edge.common.threadpool.busy_micros");
  return counter;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::Registry::Global().GetGauge("edge.common.threadpool.queue_depth");
  return gauge;
}

/// Runs one task with busy-time/throughput accounting. It runs inside the
/// task's packaged_task, so the counters are updated before the future
/// becomes ready: a caller that waited on the future sees its task counted.
/// The `pool.task` latency fault point perturbs task start times so chaos
/// runs exercise scheduling orders a quiet machine never produces;
/// bitwise-parity tests must still pass under it (the determinism contract
/// is order-independent).
void RunAccounted(const std::function<void()>& fn) {
  fault::Probe("pool.task");
  Stopwatch watch;
  auto account = [&watch] {
    BusyMicrosCounter()->Increment(
        static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
    TasksExecutedCounter()->Increment();
  };
  try {
    fn();
  } catch (...) {
    account();
    throw;  // packaged_task routes it into the task's future.
  }
  account();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task([fn = std::move(fn)] { RunAccounted(fn); });
  std::future<void> future = task.get_future();
  if (workers_.empty()) {
    task();  // Degenerate pool: run inline so futures still complete.
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    EDGE_CHECK(!shutting_down_) << "Submit() on a destructing ThreadPool";
    queue_.push_back(std::move(task));
    QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutting down and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    }
    task();
  }
}

namespace {

std::atomic<int> g_num_threads{1};

/// Set while a thread runs ParallelFor chunks; nested calls go inline.
thread_local bool t_in_parallel_region = false;

/// The pool behind ParallelFor. Sized once: budget changes (SetNumThreads)
/// only alter how many helpers a ParallelFor borrows, never the pool itself,
/// so there is no resize window in which queued chunks could be orphaned.
/// At least 8-way capacity even on small CI boxes so thread-count-sensitive
/// tests exercise real concurrency; capped to keep oversubscription sane.
/// Intentionally leaked: joining workers during static destruction races
/// other global destructors for no benefit.
ThreadPool* SharedPool() {
  static ThreadPool* pool = [] {
    size_t hw = std::thread::hardware_concurrency();
    size_t capacity = std::clamp<size_t>(hw, 8, 16);
    return new ThreadPool(capacity - 1);  // The caller is the final lane.
  }();
  return pool;
}

}  // namespace

void SetNumThreads(int n) {
  g_num_threads.store(n < 0 ? 0 : n, std::memory_order_relaxed);
}

int NumThreads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n > 0) return n;
  // Resolved once: glibc's hardware_concurrency() reads sysfs on every call
  // (microseconds), and budget 0 is consulted by every parallel kernel call.
  static const int hardware = [] {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return hardware;
}

ScopedNumThreads::ScopedNumThreads(int n)
    : saved_(g_num_threads.load(std::memory_order_relaxed)) {
  SetNumThreads(n);
}

ScopedNumThreads::~ScopedNumThreads() { SetNumThreads(saved_); }

bool InParallelRegion() { return t_in_parallel_region; }

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  size_t num_chunks = (end - begin + grain - 1) / grain;
  // Most kernel calls on training-sized matrices are one chunk, so the
  // budget is read only when there is more than one chunk to share.
  int budget = num_chunks > 1 && !t_in_parallel_region ? NumThreads() : 1;
  if (budget <= 1) {
    // Serial (or nested-inline) path: one chunk spanning the whole range is a
    // valid partition under the documented contract.
    fn(begin, end);
    return;
  }

  ThreadPool* pool = SharedPool();
  size_t helpers = std::min({static_cast<size_t>(budget - 1), pool->num_threads(),
                             num_chunks - 1});
  std::atomic<size_t> next_chunk{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto drain = [&]() {
    bool saved = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      size_t lo = begin + c * grain;
      size_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        next_chunk.store(num_chunks, std::memory_order_relaxed);  // Abandon rest.
      }
    }
    t_in_parallel_region = saved;
  };

  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) futures.push_back(pool->Submit(drain));
  drain();  // The caller works too instead of blocking idle.
  for (std::future<void>& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace edge
