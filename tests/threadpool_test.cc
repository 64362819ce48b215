#include "edge/common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace edge {
namespace {

TEST(ThreadPoolTest, SubmitRunsTasksAndFuturesComplete) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Submit([&ran] { ran = 1; }).get();
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task and keeps executing.
  std::atomic<int> ok{0};
  pool.Submit([&ok] { ok = 1; }).get();
  EXPECT_EQ(ok.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // Destructor joins after the queue drains.
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, StressManyTinyTasks) {
  // 10k tiny tasks across 8 threads; run under -DEDGE_SANITIZE=thread|address
  // to certify the queue and shutdown paths race-free.
  ThreadPool pool(8);
  constexpr int kTasks = 10000;
  std::atomic<int64_t> sum{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kTasks) * (kTasks - 1) / 2);
}

TEST(NumThreadsTest, SetResolveAndScopedRestore) {
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  {
    ScopedNumThreads scoped(6);
    EXPECT_EQ(NumThreads(), 6);
    {
      ScopedNumThreads inner(0);  // 0 = hardware concurrency, resolved >= 1.
      unsigned hw = std::thread::hardware_concurrency();
      EXPECT_EQ(NumThreads(), hw == 0 ? 1 : static_cast<int>(hw));
    }
    EXPECT_EQ(NumThreads(), 6);
  }
  EXPECT_EQ(NumThreads(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedNumThreads scoped(8);
  constexpr size_t kN = 1337;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, kN, 7, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, EmptyAndSingleChunkRanges) {
  ScopedNumThreads scoped(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(0, 3, 10, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
  });
  EXPECT_EQ(calls, 1);  // One chunk -> runs inline on the caller.
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ScopedNumThreads scoped(4);
  EXPECT_THROW(ParallelFor(0, 100, 1,
                           [](size_t lo, size_t) {
                             if (lo == 42) throw std::runtime_error("chunk 42");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ScopedNumThreads scoped(8);
  constexpr size_t kOuter = 64;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> counts(kOuter);
  for (auto& c : counts) c.store(0);
  ParallelFor(0, kOuter, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(InParallelRegion() || NumThreads() >= 1);
      // The nested call must detect the worker context and run inline.
      ParallelFor(0, kInner, 4, [&](size_t ilo, size_t ihi) {
        counts[i].fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  for (size_t i = 0; i < kOuter; ++i) {
    EXPECT_EQ(counts[i].load(), static_cast<int>(kInner));
  }
}

TEST(ParallelReduceTest, DeterministicAcrossThreadCounts) {
  // Chunk boundaries depend only on the grain and partials combine in chunk
  // order, so the floating-point sum must be bitwise identical at any budget.
  constexpr size_t kN = 10007;
  auto run = [](int threads) {
    ScopedNumThreads scoped(threads);
    return ParallelReduce<double>(
        0, kN, 13, 0.0,
        [](size_t lo, size_t hi) {
          double s = 0.0;
          for (size_t i = lo; i < hi; ++i) {
            s += 1.0 / static_cast<double>(i + 1);  // Order-sensitive terms.
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  ScopedNumThreads scoped(4);
  double out = ParallelReduce<double>(
      3, 3, 1, -7.5, [](size_t, size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(out, -7.5);
}

}  // namespace
}  // namespace edge
