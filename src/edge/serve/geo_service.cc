#include "edge/serve/geo_service.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "edge/common/file_util.h"
#include "edge/fault/fault.h"
#include "edge/obs/json_util.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"

namespace edge::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// `submitted` + `ms`, or time_point::max() (no deadline) when the clock
/// cannot represent that instant: 1e300 or +inf ms must saturate, not cast
/// out of range into the int64 tick count.
Clock::time_point DeadlineAfter(Clock::time_point submitted, double ms) {
  const std::chrono::duration<double, std::milli> budget(ms);
  if (!(budget < Clock::time_point::max() - submitted)) {
    return Clock::time_point::max();
  }
  return submitted + std::chrono::duration_cast<Clock::duration>(budget);
}

double DurationMs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Service-wide instruments, cached once (hot path: one lookup per process).
struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* shed;
  obs::Counter* deadline_expired;
  obs::Counter* batches;
  obs::Counter* reloads;
  obs::Counter* reload_failures;
  obs::Histogram* batch_size;
  obs::Histogram* latency_seconds;
  /// Shed / expired-deadline turnarounds. Kept out of latency_seconds so
  /// a shed storm's near-zero answers cannot mask a served-path regression.
  obs::Histogram* degraded_latency_seconds;
  obs::Histogram* submit_seconds;
  obs::Histogram* batch_drain_seconds;
  obs::Histogram* predict_seconds;
  obs::Gauge* queue_depth;
  obs::Gauge* model_generation;
};

ServeMetrics& Metrics() {
  static ServeMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Global();
    ServeMetrics m;
    m.requests = registry.GetCounter("edge.serve.requests");
    m.cache_hits = registry.GetCounter("edge.serve.cache_hits");
    m.cache_misses = registry.GetCounter("edge.serve.cache_misses");
    m.shed = registry.GetCounter("edge.serve.shed");
    m.deadline_expired = registry.GetCounter("edge.serve.deadline_expired");
    m.batches = registry.GetCounter("edge.serve.batches");
    m.reloads = registry.GetCounter("edge.serve.reloads");
    m.reload_failures = registry.GetCounter("edge.serve.reload_failures");
    m.batch_size = registry.GetHistogram("edge.serve.batch_size",
                                         {1, 2, 4, 8, 16, 32, 64, 128, 256});
    m.latency_seconds = registry.GetHistogram("edge.serve.latency_seconds");
    m.degraded_latency_seconds =
        registry.GetHistogram("edge.serve.degraded_latency_seconds");
    m.submit_seconds = registry.GetHistogram("edge.serve.submit_seconds");
    m.batch_drain_seconds =
        registry.GetHistogram("edge.serve.batch_drain_seconds");
    m.predict_seconds = registry.GetHistogram("edge.serve.predict_seconds");
    m.queue_depth = registry.GetGauge("edge.serve.queue_depth");
    m.model_generation = registry.GetGauge("edge.serve.model_generation");
    return m;
  }();
  return metrics;
}

/// Sliding-window instruments behind Stats()/SLO evaluation, at the
/// instruments' default 60 s window. Process-global like every registry
/// instrument: services in one process share them.
struct WindowMetrics {
  obs::WindowedHistogram* latency;
  obs::WindowedCounter* requests;
  obs::WindowedCounter* cache_hits;
  obs::WindowedCounter* cache_misses;
  obs::WindowedCounter* shed;
  obs::WindowedCounter* deadline_expired;
  obs::WindowedCounter* fallback;
  obs::WindowedCounter* degraded;
};

WindowMetrics& Window() {
  static WindowMetrics window = [] {
    obs::Registry& registry = obs::Registry::Global();
    WindowMetrics w;
    w.latency = registry.GetWindowedHistogram("edge.serve.window.latency_seconds");
    w.requests = registry.GetWindowedCounter("edge.serve.window.requests");
    w.cache_hits = registry.GetWindowedCounter("edge.serve.window.cache_hits");
    w.cache_misses = registry.GetWindowedCounter("edge.serve.window.cache_misses");
    w.shed = registry.GetWindowedCounter("edge.serve.window.shed");
    w.deadline_expired =
        registry.GetWindowedCounter("edge.serve.window.deadline_expired");
    w.fallback = registry.GetWindowedCounter("edge.serve.window.fallback");
    w.degraded = registry.GetWindowedCounter("edge.serve.window.degraded");
    return w;
  }();
  return window;
}

/// Copies the stage waterfall onto the response. `batch_size` is 0 for
/// requests that never rode a micro-batch (cache hits, submit-time sheds).
void FillTelemetry(ServeResponse* response, const obs::TraceContext& trace,
                   uint64_t generation, size_t batch_size) {
  RequestTelemetry& t = response->telemetry;
  t.request_id = trace.request_id();
  t.model_generation = generation;
  t.batch_size = batch_size;
  t.ner_ms = trace.StageMs(obs::RequestStage::kNer);
  t.cache_ms = trace.StageMs(obs::RequestStage::kCacheProbe);
  t.queue_ms = trace.StageMs(obs::RequestStage::kQueue);
  t.batch_ms = trace.StageMs(obs::RequestStage::kBatch);
  t.predict_ms = trace.StageMs(obs::RequestStage::kPredict);
  t.total_ms = response->latency_ms;
}

}  // namespace

Status GeoServiceOptions::Validate() const {
  // Upper caps catch "-1 parsed into a size_t" wrap-arounds from CLI flags
  // as hard errors instead of impossible allocations.
  constexpr size_t kMaxBatchCap = 1 << 16;
  constexpr size_t kMaxWorkersCap = 1 << 10;
  constexpr size_t kMaxQueueCap = 1 << 24;
  constexpr size_t kMaxCacheCap = 1 << 26;
  if (max_batch == 0 || max_batch > kMaxBatchCap) {
    return Status::InvalidArgument("max_batch must be in [1, 65536]");
  }
  if (num_workers == 0 || num_workers > kMaxWorkersCap) {
    return Status::InvalidArgument("num_workers must be in [1, 1024]");
  }
  if (queue_capacity == 0 || queue_capacity > kMaxQueueCap) {
    return Status::InvalidArgument("queue_capacity must be in [1, 2^24]");
  }
  if (cache_capacity > kMaxCacheCap) {
    return Status::InvalidArgument("cache_capacity must be <= 2^26 (0 = off)");
  }
  if (!(default_deadline_ms >= 0.0) || !std::isfinite(default_deadline_ms)) {
    return Status::InvalidArgument("default_deadline_ms must be finite and >= 0");
  }
  if (!std::isfinite(slo_p99_ms) || slo_p99_ms <= 0.0 || slo_p99_ms > 1e6) {
    return Status::InvalidArgument("slo_p99_ms must be in (0, 1e6]");
  }
  if (!std::isfinite(slo_availability) || slo_availability <= 0.0 ||
      slo_availability >= 1.0) {
    return Status::InvalidArgument(
        "slo_availability must be in (0, 1) — 1.0 leaves no error budget");
  }
  return Status::Ok();
}

const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone: return "none";
    case DegradeReason::kShed: return "shed";
    case DegradeReason::kDeadline: return "deadline";
  }
  return "unknown";
}

Result<std::unique_ptr<GeoService>> GeoService::Create(
    std::unique_ptr<core::EdgeModel> model, text::Gazetteer gazetteer,
    GeoServiceOptions options, CompletionNotifier on_batch_done) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  Status status = options.Validate();
  if (!status.ok()) return status;
  return std::unique_ptr<GeoService>(new GeoService(
      std::move(model), std::move(gazetteer), options, std::move(on_batch_done)));
}

GeoService::GeoService(std::unique_ptr<core::EdgeModel> model,
                       text::Gazetteer gazetteer, const GeoServiceOptions& options,
                       CompletionNotifier on_batch_done)
    : options_(options),
      on_batch_done_(std::move(on_batch_done)),
      ner_(std::move(gazetteer)),
      cache_(options.cache_capacity) {
  auto state = std::make_shared<ModelState>();
  state->fallback = model->FallbackPrediction();
  state->model = std::move(model);
  state->generation = 1;
  state_ = std::move(state);
  Metrics().model_generation->Set(1.0);
  WindowMetrics& window = Window();
  slo_.AddLatencyObjective("latency_p99", window.latency, 99.0,
                           options_.slo_p99_ms * 1e-3);
  slo_.AddAvailabilityObjective("availability", window.degraded, window.requests,
                                options_.slo_availability);
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  EDGE_LOG(INFO) << "geo service up" << obs::Kv("workers", options_.num_workers)
                 << obs::Kv("max_batch", options_.max_batch)
                 << obs::Kv("queue_capacity", options_.queue_capacity)
                 << obs::Kv("cache_capacity", options_.cache_capacity);
}

GeoService::~GeoService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    paused_ = false;  // A paused service still drains on shutdown.
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::string GeoService::CacheKey(const core::EdgeModel& model,
                                 const std::vector<text::Entity>& entities) {
  std::vector<size_t> ids;
  ids.reserve(entities.size());
  for (const text::Entity& e : entities) {
    size_t id = model.NodeIdOf(e.name);
    if (id != graph::EntityGraph::kNotFound) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::string key;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += std::to_string(ids[i]);
  }
  return key;
}

ServeResponse GeoService::DegradedResponse(const ModelState& state,
                                           DegradeReason reason,
                                           Clock::time_point submitted) {
  ServeResponse response;
  response.prediction = state.fallback;
  response.model = state.model;
  response.degraded = true;
  response.degrade_reason = reason;
  response.latency_ms = DurationMs(Clock::now() - submitted);
  return response;
}

std::future<ServeResponse> GeoService::SubmitAsync(std::string text) {
  return SubmitAsync(std::move(text), options_.default_deadline_ms);
}

std::future<ServeResponse> GeoService::SubmitAsync(std::string text,
                                                   double deadline_ms) {
  EDGE_TRACE_SPAN("edge.serve.submit");
  fault::Probe("serve.submit");  // Latency chaos on the admission path.
  ServeMetrics& metrics = Metrics();
  WindowMetrics& window = Window();
  metrics.requests->Increment();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point submitted = Clock::now();
  obs::ScopedTimer submit_timer(metrics.submit_seconds);

  Pending pending;
  pending.trace = obs::TraceContext(
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1);
  window.requests->Increment();
  pending.trace.Begin(obs::RequestStage::kNer);
  pending.tweet.entities = ner_.Extract(text);
  pending.trace.End(obs::RequestStage::kNer);
  pending.submitted = submitted;
  pending.deadline = deadline_ms > 0.0 ? DeadlineAfter(submitted, deadline_ms)
                                       : Clock::time_point::max();
  std::future<ServeResponse> future = pending.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Cache keys are node ids under the *current* model's graph; the cache
    // is cleared whenever that model swaps, so a hit is always current.
    pending.trace.Begin(obs::RequestStage::kCacheProbe);
    std::string cache_key = CacheKey(*state_->model, pending.tweet.entities);
    const core::EdgePrediction* hit = cache_.Get(cache_key);
    pending.trace.End(obs::RequestStage::kCacheProbe);
    if (hit != nullptr) {
      metrics.cache_hits->Increment();
      window.cache_hits->Increment();
      ServeResponse response;
      response.prediction = *hit;
      response.model = state_->model;
      response.from_cache = true;
      response.latency_ms = DurationMs(Clock::now() - submitted);
      metrics.latency_seconds->Observe(response.latency_ms * 1e-3);
      window.latency->Observe(response.latency_ms * 1e-3);
      if (response.prediction.used_fallback) window.fallback->Increment();
      FillTelemetry(&response, pending.trace, state_->generation,
                    /*batch_size=*/0);
      pending.trace.ExportSpans();
      pending.promise.set_value(std::move(response));
      return future;
    }
    metrics.cache_misses->Increment();
    window.cache_misses->Increment();
    if (queue_.size() >= options_.queue_capacity) {
      // Backpressure: answer the fallback prior now instead of growing an
      // unbounded queue (or erroring) under overload.
      metrics.shed->Increment();
      window.shed->Increment();
      window.degraded->Increment();
      // The request never entered the pipeline — keep its near-zero
      // turnaround out of the admission-latency histogram.
      submit_timer.Cancel();
      ServeResponse response =
          DegradedResponse(*state_, DegradeReason::kShed, submitted);
      metrics.degraded_latency_seconds->Observe(response.latency_ms * 1e-3);
      FillTelemetry(&response, pending.trace, state_->generation,
                    /*batch_size=*/0);
      pending.trace.ExportSpans();
      pending.promise.set_value(std::move(response));
      return future;
    }
    pending.trace.Begin(obs::RequestStage::kQueue);
    queue_.push_back(std::move(pending));
    metrics.queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

std::shared_ptr<const core::EdgeModel> GeoService::model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->model;
}

uint64_t GeoService::model_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_->generation;
}

Status GeoService::AdoptReloadedModel(std::unique_ptr<core::EdgeModel> model) {
  if (model == nullptr) return Status::InvalidArgument("null model");
  ServeMetrics& metrics = Metrics();
  auto fresh = std::make_shared<ModelState>();
  fresh->fallback = model->FallbackPrediction();
  fresh->model = std::move(model);
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fresh->generation = state_->generation + 1;
    generation = fresh->generation;
    state_ = std::move(fresh);
    // Old-generation node ids must not answer new-generation lookups.
    cache_.Clear();
  }
  metrics.reloads->Increment();
  metrics.model_generation->Set(static_cast<double>(generation));
  EDGE_LOG(INFO) << "model reloaded" << obs::Kv("generation", generation);
  return Status::Ok();
}

Status GeoService::ReloadFromFile(const std::string& path) {
  // mmap + validate (per options_.model_store_verify) before touching any
  // served state, then swap — under kFast no step here scales with entity
  // count. Open probes io.checkpoint.read, which the chaos drills arm.
  Result<std::shared_ptr<const core::MmapModelStore>> store = Status::Internal("");
  Status status = RetryWithBackoff(/*attempts=*/4, /*base_backoff_ms=*/1.0, [&]() {
    store = core::MmapModelStore::Open(path, options_.model_store_verify);
    return store.ok() ? Status::Ok() : store.status();
  });
  if (status.ok()) {
    auto loaded = core::EdgeModel::LoadFromStore(std::move(store).value());
    if (loaded.ok()) return AdoptReloadedModel(std::move(loaded).value());
    status = loaded.status();
  }
  Metrics().reload_failures->Increment();
  EDGE_LOG(WARN) << "model reload rejected" << obs::Kv("path", path)
                 << obs::Kv("error", status.ToString());
  return status;
}

ServeResponse GeoService::Predict(const std::string& text) {
  return SubmitAsync(text).get();
}

size_t GeoService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<obs::SloMonitor::Evaluation> GeoService::EvaluateSlo() const {
  return slo_.Evaluate();
}

ServiceStats GeoService::Stats() const {
  ServiceStats stats;
  WindowMetrics& window = Window();
  obs::WindowedHistogram::Snapshot latency = window.latency->TakeSnapshot();
  stats.window_seconds = latency.window_seconds;
  stats.requests_in_window = window.requests->ValueInWindow();
  stats.requests_per_second = window.requests->RatePerSecond();
  stats.served_in_window = latency.count;
  stats.latency_p50_ms = latency.p50 * 1e3;
  stats.latency_p99_ms = latency.p99 * 1e3;
  stats.latency_p999_ms = latency.p999 * 1e3;
  stats.cache_hits = window.cache_hits->ValueInWindow();
  stats.cache_misses = window.cache_misses->ValueInWindow();
  stats.shed = window.shed->ValueInWindow();
  stats.deadline_expired = window.deadline_expired->ValueInWindow();
  stats.fallback = window.fallback->ValueInWindow();
  stats.degraded = window.degraded->ValueInWindow();
  stats.slo = EvaluateSlo();
  return stats;
}

std::string GeoService::StatsJson() const {
  using obs::internal::AppendJsonDouble;
  ServiceStats stats = Stats();
  std::string out = "{\"window_seconds\": ";
  AppendJsonDouble(&out, stats.window_seconds);
  out += ", \"requests\": {\"in_window\": " +
         std::to_string(stats.requests_in_window);
  out += ", \"per_second\": ";
  AppendJsonDouble(&out, stats.requests_per_second);
  out += "}, \"latency_ms\": {\"served\": " +
         std::to_string(stats.served_in_window);
  out += ", \"p50\": ";
  AppendJsonDouble(&out, stats.latency_p50_ms);
  out += ", \"p99\": ";
  AppendJsonDouble(&out, stats.latency_p99_ms);
  out += ", \"p999\": ";
  AppendJsonDouble(&out, stats.latency_p999_ms);
  out += "}, \"breakdown\": {\"cache_hits\": " + std::to_string(stats.cache_hits);
  out += ", \"cache_misses\": " + std::to_string(stats.cache_misses);
  out += ", \"shed\": " + std::to_string(stats.shed);
  out += ", \"deadline_expired\": " + std::to_string(stats.deadline_expired);
  out += ", \"fallback\": " + std::to_string(stats.fallback);
  out += ", \"degraded\": " + std::to_string(stats.degraded);
  out += "}, \"slo\": " + obs::SloMonitor::ToJson(stats.slo);
  out += "}";
  return out;
}

HealthSnapshot GeoService::Health() const {
  HealthSnapshot health;
  {
    std::lock_guard<std::mutex> lock(mu_);
    health.model_generation = state_->generation;
    health.queue_depth = queue_.size();
  }
  health.reloads = health.model_generation - 1;  // Generation starts at 1.
  health.queue_capacity = options_.queue_capacity;
  health.num_workers = options_.num_workers;
  size_t busy = busy_workers_.load(std::memory_order_relaxed);
  health.worker_busy_fraction = options_.num_workers == 0
                                    ? 0.0
                                    : static_cast<double>(busy) /
                                          static_cast<double>(options_.num_workers);
  health.fault_armed = fault::Armed();
  health.requests_total = requests_total_.load(std::memory_order_relaxed);
  health.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_).count();
  return health;
}

std::string GeoService::HealthJson() const {
  using obs::internal::AppendJsonDouble;
  HealthSnapshot health = Health();
  std::string out =
      "{\"model_generation\": " + std::to_string(health.model_generation);
  out += ", \"reloads\": " + std::to_string(health.reloads);
  out += ", \"queue_depth\": " + std::to_string(health.queue_depth);
  out += ", \"queue_capacity\": " + std::to_string(health.queue_capacity);
  out += ", \"workers\": " + std::to_string(health.num_workers);
  out += ", \"worker_busy_fraction\": ";
  AppendJsonDouble(&out, health.worker_busy_fraction);
  out += ", \"fault_armed\": ";
  out += health.fault_armed ? "true" : "false";
  out += ", \"requests_total\": " + std::to_string(health.requests_total);
  out += ", \"uptime_seconds\": ";
  AppendJsonDouble(&out, health.uptime_seconds);
  out += "}";
  return out;
}

void GeoService::PauseWorkersForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void GeoService::ResumeWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool GeoService::NextBatch(std::vector<Pending>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  // A paused service still drains on shutdown (the destructor unpauses).
  cv_.wait(lock, [this] { return stop_ || (!paused_ && !queue_.empty()); });
  if (queue_.empty()) return false;  // Stopping and drained.
  // Work conserving: take what is queued now, never wait for more.
  size_t n = std::min(queue_.size(), options_.max_batch);
  batch->clear();
  batch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop_front();
    // Queue wait ends at worker pickup; the batch stage starts here and runs
    // until the response is set.
    batch->back().trace.End(obs::RequestStage::kQueue);
    batch->back().trace.Begin(obs::RequestStage::kBatch);
  }
  Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
  return true;
}

void GeoService::ProcessBatch(std::vector<Pending>* batch) {
  EDGE_TRACE_SPAN("edge.serve.batch");
  fault::Probe("serve.batch");  // Latency chaos on the drain path.
  ServeMetrics& metrics = Metrics();
  WindowMetrics& window = Window();
  metrics.batches->Increment();
  metrics.batch_size->Observe(static_cast<double>(batch->size()));
  const size_t batch_size = batch->size();
  busy_workers_.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedTimer drain_timer(metrics.batch_drain_seconds);

  // Snapshot the model for the whole batch: a concurrent hot reload must not
  // tear a batch across two models. In-flight responses carry this snapshot.
  std::shared_ptr<const ModelState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    state = state_;
  }

  // Expired requests degrade to the prior; the rest are predicted one by one.
  Clock::time_point now = Clock::now();
  std::vector<size_t> live;
  live.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    Pending& request = (*batch)[i];
    if (now >= request.deadline) {
      metrics.deadline_expired->Increment();
      window.deadline_expired->Increment();
      window.degraded->Increment();
      ServeResponse response =
          DegradedResponse(*state, DegradeReason::kDeadline, request.submitted);
      metrics.degraded_latency_seconds->Observe(response.latency_ms * 1e-3);
      request.trace.End(obs::RequestStage::kBatch);
      FillTelemetry(&response, request.trace, state->generation, batch_size);
      request.trace.ExportSpans();
      request.promise.set_value(std::move(response));
      continue;
    }
    live.push_back(i);
  }
  if (live.empty()) {
    // No model work ran — an all-expired batch would otherwise pollute the
    // drain-time histogram with near-zero samples.
    drain_timer.Cancel();
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }

  uint64_t predict_begin_us = obs::TraceNowMicros();
  std::vector<core::EdgePrediction> predictions;
  predictions.reserve(live.size());
  {
    obs::ScopedTimer predict_timer(metrics.predict_seconds);
    for (size_t i : live) {
      predictions.push_back(state->model->Predict((*batch)[i].tweet));
    }
  }
  uint64_t predict_end_us = obs::TraceNowMicros();

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Skip the cache when a reload swapped the model mid-batch: these
    // predictions (and their node-id keys) belong to the old generation.
    if (state == state_) {
      for (size_t j = 0; j < live.size(); ++j) {
        cache_.Put(CacheKey(*state->model, (*batch)[live[j]].tweet.entities),
                   predictions[j]);
      }
    }
  }
  for (size_t j = 0; j < live.size(); ++j) {
    Pending& request = (*batch)[live[j]];
    ServeResponse response;
    response.prediction = std::move(predictions[j]);
    response.model = state->model;
    response.latency_ms = DurationMs(Clock::now() - request.submitted);
    metrics.latency_seconds->Observe(response.latency_ms * 1e-3);
    window.latency->Observe(response.latency_ms * 1e-3);
    if (response.prediction.used_fallback) window.fallback->Increment();
    // The predict span is batch-wide: every member shares its stamps.
    request.trace.SetStage(obs::RequestStage::kPredict, predict_begin_us,
                           predict_end_us);
    request.trace.End(obs::RequestStage::kBatch);
    FillTelemetry(&response, request.trace, state->generation, batch_size);
    request.trace.ExportSpans();
    request.promise.set_value(std::move(response));
  }
  busy_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void GeoService::WorkerLoop() {
  std::vector<Pending> batch;
  while (NextBatch(&batch)) {
    ProcessBatch(&batch);
    // Every promise of the batch is set: wake whoever renders the answers.
    if (on_batch_done_) on_batch_done_();
  }
}

}  // namespace edge::serve
