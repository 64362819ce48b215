#ifndef EDGE_SERVE_GEO_SERVICE_H_
#define EDGE_SERVE_GEO_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "edge/common/status.h"
#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/obs/slo.h"
#include "edge/obs/trace_context.h"
#include "edge/serve/lru_cache.h"
#include "edge/text/ner.h"

/// \file
/// In-process batched inference service over a trained EDGE checkpoint —
/// the request-serving layer the ROADMAP's "heavy traffic" north star needs.
///
/// A request is one raw tweet text. The calling thread runs NER, resolves
/// entities to graph node ids and consults an LRU response cache; on a miss
/// the request enters a bounded admission queue. Worker threads are work
/// conserving: a free worker takes whatever is queued, up to `max_batch`
/// requests, the moment it is queued, and runs it through the tweet-parallel
/// EdgeModel::PredictBatch path. Nothing ever waits for a batch to fill —
/// GCN diffusion is materialised at fit time, so a served tweet is a row
/// gather plus attention plus the MDN head and batching saves no work;
/// batches form only from requests that queued while every worker was busy.
///
/// An event loop learns that answers are ready from the completion notifier
/// handed to Create: a worker calls it after fulfilling every promise of a
/// batch, so the loop can park in poll() instead of polling the futures.
///
/// Degradation instead of failure: requests that would overflow the queue
/// (backpressure shed) or whose deadline expires while queued answer the
/// model's training-set fallback prior immediately; they never error. Since
/// EdgeModel::Predict is a bitwise-deterministic pure function of the entity
/// set, served responses are bitwise-equal to a serial Predict() loop at any
/// (worker count x batch size x thread budget) combination — which is also
/// what makes the entity-set-keyed cache exact rather than approximate.

namespace edge::serve {

/// Tuning knobs for the service. Defaults favour latency on small hosts.
struct GeoServiceOptions {
  /// Most requests one worker takes off the queue at a time.
  size_t max_batch = 16;
  /// Worker threads draining the queue.
  size_t num_workers = 1;
  /// Admission-queue bound; submissions beyond it shed to the fallback prior.
  size_t queue_capacity = 1024;
  /// LRU response-cache entries, keyed on the sorted entity-id set. 0 = off.
  size_t cache_capacity = 4096;
  /// Default per-request deadline in ms; 0 = no deadline. Requests still
  /// queued past their deadline answer the fallback prior.
  double default_deadline_ms = 0.0;
  /// EdgeModel thread budget while draining one batch (0 = hardware).
  int predict_threads = 1;
  /// Per-request lifecycle telemetry: deterministic request ids, the stage
  /// waterfall in responses, sliding-window stats and SLO evaluation. Off
  /// reverts the submit/batch paths to plain cumulative counters.
  bool telemetry = true;
  /// Sliding window the stats/SLO instruments aggregate over, in seconds.
  /// The windowed instruments are process-global: the first service created
  /// in a process fixes the window length for all of them.
  double telemetry_window_seconds = 60.0;
  /// Latency SLO: windowed p99 of served (non-degraded) requests must stay
  /// at or below this many milliseconds.
  double slo_p99_ms = 100.0;
  /// Availability SLO: the fraction of requests degraded (shed or expired
  /// deadline) over the window must not exceed 1 - slo_availability.
  double slo_availability = 0.999;
  /// Verification depth when (re)loading an edge-model.v1 binary checkpoint.
  /// kFull checksums every section (O(model)); kFast runs the structural
  /// gates only, making ReloadFromFile on a binary checkpoint an O(1)
  /// map-and-swap in entity count. Use kFast when artifacts come from a
  /// trusted pipeline that already verified them once (see StoreVerify).
  core::StoreVerify model_store_verify = core::StoreVerify::kFull;

  /// Rejected (Status, at Create time) rather than clamped: a tool that
  /// parses "--workers=-1" into a size_t would otherwise ask for 2^64
  /// threads. Bounds are far above any sane deployment.
  Status Validate() const;
};

/// Why a response was degraded to the fallback prior.
enum class DegradeReason {
  kNone = 0,
  kShed,      ///< Admission queue was full at submit time.
  kDeadline,  ///< Deadline expired while the request was queued.
};

/// "none" / "shed" / "deadline".
const char* DegradeReasonName(DegradeReason reason);

/// Per-request lifecycle telemetry carried on the response: the request id,
/// the producing model generation, the micro-batch the request rode in, and
/// the per-stage latency waterfall. request_id == 0 means telemetry was off.
/// Stage semantics: a cache hit records ner/cache only; a shed request
/// records ner/cache; a queued request adds queue/batch/predict.
struct RequestTelemetry {
  uint64_t request_id = 0;
  uint64_t model_generation = 0;
  /// Requests in the micro-batch this one was served in (0 = never batched:
  /// cache hit or shed at submit).
  size_t batch_size = 0;
  double ner_ms = 0.0;
  double cache_ms = 0.0;
  double queue_ms = 0.0;
  double batch_ms = 0.0;
  double predict_ms = 0.0;
  double total_ms = 0.0;
};

/// One served answer: the full mixture prediction plus serving metadata.
struct ServeResponse {
  core::EdgePrediction prediction;
  /// The model that produced the prediction. Rendering (projection, node
  /// names) must use this, not the service's current model: a hot reload can
  /// swap the served model while this response is in flight, and the two
  /// models' projections need not agree.
  std::shared_ptr<const core::EdgeModel> model;
  bool from_cache = false;
  /// True when the service answered the fallback prior because the request
  /// was shed or timed out (prediction.used_fallback additionally covers
  /// tweets with no known entity — that one is a model answer, not
  /// degradation).
  bool degraded = false;
  DegradeReason degrade_reason = DegradeReason::kNone;
  /// Submit-to-completion wall time.
  double latency_ms = 0.0;
  /// Lifecycle waterfall; telemetry.request_id == 0 when telemetry is off.
  RequestTelemetry telemetry;
};

/// Point-in-time liveness/readiness view of one service instance — the
/// per-replica health contract the sharded serving tier will scrape.
struct HealthSnapshot {
  uint64_t model_generation = 0;
  uint64_t reloads = 0;  ///< Successful hot reloads since creation.
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  size_t num_workers = 0;
  /// Workers currently draining a batch / num_workers (instantaneous).
  double worker_busy_fraction = 0.0;
  /// True when any fault-injection point is armed — a replica that lies
  /// about this would poison fleet-level debugging.
  bool fault_armed = false;
  bool telemetry_enabled = true;
  uint64_t requests_total = 0;  ///< Lifetime submits to this instance.
  /// Seconds since this instance was constructed. A supervisor comparing
  /// replicas uses this to tell a freshly respawned process (small uptime,
  /// cold cache) from a long-lived survivor.
  double uptime_seconds = 0.0;
};

/// Sliding-window serving statistics plus the SLO evaluations (see
/// GeoService::Stats). All latency figures are milliseconds.
struct ServiceStats {
  double window_seconds = 0.0;
  bool telemetry_enabled = true;
  int64_t requests_in_window = 0;
  double requests_per_second = 0.0;
  /// Served (non-degraded) responses contributing to the latency window.
  int64_t served_in_window = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  /// DegradeReason/cache breakdown over the window.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t shed = 0;
  int64_t deadline_expired = 0;
  int64_t fallback = 0;  ///< Model answered its prior (no known entity).
  int64_t degraded = 0;  ///< shed + deadline_expired.
  std::vector<obs::SloMonitor::Evaluation> slo;
};

/// The batched inference service. Thread-safe: any number of threads may
/// Submit/Predict concurrently. Destruction drains every queued request
/// (fulfilling all futures) and joins the workers.
class GeoService {
 public:
  /// Called on a worker thread after every promise of a batch is fulfilled
  /// (an all-expired batch included). It must be thread-safe, cheap and
  /// outlive the service: typically it signals an event loop's net::Waker.
  using CompletionNotifier = std::function<void()>;

  /// Loads an EDGE-INFERENCE v1 checkpoint; corrupt streams come back as a
  /// Status error (the process keeps running). The gazetteer drives the NER
  /// that maps raw text to entity ids.
  static Result<std::unique_ptr<GeoService>> Create(
      std::istream* checkpoint, text::Gazetteer gazetteer,
      GeoServiceOptions options = {}, CompletionNotifier on_batch_done = nullptr);

  /// As above from an already-loaded (or freshly trained) model.
  static Result<std::unique_ptr<GeoService>> Create(
      std::unique_ptr<core::EdgeModel> model, text::Gazetteer gazetteer,
      GeoServiceOptions options = {}, CompletionNotifier on_batch_done = nullptr);

  ~GeoService();

  GeoService(const GeoService&) = delete;
  GeoService& operator=(const GeoService&) = delete;

  /// Enqueues one request; the future completes when its batch is served
  /// (immediately on a cache hit, shed or expired deadline). `deadline_ms`
  /// overrides options.default_deadline_ms; 0 = no deadline.
  std::future<ServeResponse> SubmitAsync(std::string text);
  std::future<ServeResponse> SubmitAsync(std::string text, double deadline_ms);

  /// Blocking convenience: SubmitAsync + get().
  ServeResponse Predict(const std::string& text);

  /// Hot model reload: parses and fully validates an EDGE-INFERENCE v1
  /// checkpoint (the same gates as Create), then atomically swaps it in. On
  /// any validation failure the service keeps serving the old model and the
  /// error comes back as a Status. In-flight batches finish on the model
  /// they started with; the response cache is cleared with the swap.
  Status ReloadCheckpoint(std::istream* in);

  /// Hot reload from a checkpoint file of either format, retrying transient
  /// read faults with backoff (fault point io.checkpoint.read). Text files
  /// take the ReloadCheckpoint parse path; edge-model.v1 files are mmap'd and
  /// verified per options.model_store_verify — under kFast that is an O(1)
  /// map-and-swap regardless of entity count. Both paths preserve the reload
  /// invariants: validation before any served-state change, in-flight batches
  /// finish on their producing model, cache cleared with the generation bump.
  Status ReloadFromFile(const std::string& path);

  /// The model currently being served (e.g. for projection() when rendering
  /// output). Hot reload swaps the service's model, so callers hold a
  /// snapshot; prefer ServeResponse::model when rendering a response.
  std::shared_ptr<const core::EdgeModel> model() const;

  /// Monotonic model generation; starts at 1 and bumps on every successful
  /// reload (diagnostics).
  uint64_t model_generation() const;

  /// Requests currently queued (diagnostics; racy by nature).
  size_t queue_depth() const;

  /// Sliding-window stats + SLO evaluations (the {"stats":true} verb).
  /// Note the windowed instruments are process-global: with several services
  /// in one process the window aggregates all of them.
  ServiceStats Stats() const;
  /// Stats() rendered as one JSON object (stable key order).
  std::string StatsJson() const;

  /// Point-in-time health of this instance (the {"health":true} verb).
  HealthSnapshot Health() const;
  /// Health() rendered as one JSON object (stable key order).
  std::string HealthJson() const;

  /// Evaluates the configured SLOs against the current window and publishes
  /// edge.serve.slo.*.burn_rate/.ok gauges. Empty when telemetry is off.
  std::vector<obs::SloMonitor::Evaluation> EvaluateSlo() const;

  /// Test hooks: freeze/unfreeze the workers so queue states (full, expired
  /// deadlines) can be constructed deterministically.
  void PauseWorkersForTest();
  void ResumeWorkers();

 private:
  struct Pending {
    std::vector<text::Entity> entities;
    std::promise<ServeResponse> promise;
    std::chrono::steady_clock::time_point submitted;
    /// time_point::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
    /// Rides along through the queue; default (id 0) when telemetry is off.
    obs::TraceContext trace;
  };

  /// Everything that swaps as a unit on hot reload. Workers snapshot the
  /// shared_ptr under mu_ and use it lock-free for the whole batch, so a
  /// reload never tears a batch across two models; the old state dies when
  /// the last in-flight response releases it.
  struct ModelState {
    std::shared_ptr<const core::EdgeModel> model;
    /// The prior answered for degraded requests, computed once per model.
    core::EdgePrediction fallback;
    uint64_t generation = 1;
  };

  GeoService(std::unique_ptr<core::EdgeModel> model, text::Gazetteer gazetteer,
             const GeoServiceOptions& options, CompletionNotifier on_batch_done);

  void WorkerLoop();
  /// Blocks until work is queued, then takes up to max_batch requests without
  /// waiting for more; returns false once the service is stopping and drained.
  bool NextBatch(std::vector<Pending>* batch);
  void ProcessBatch(std::vector<Pending>* batch);
  /// Validated-model tail shared by every reload path: thread budget, fresh
  /// fallback, generation bump, state swap, cache clear.
  Status AdoptReloadedModel(std::unique_ptr<core::EdgeModel> model);
  /// Sorted-entity-id cache key ("3,17,42") under `model`'s vocabulary
  /// (entity graph or mapped store — ids agree across formats for the same
  /// checkpoint); "" when no entity is known. Keys are only meaningful within
  /// one model generation (the cache is cleared on reload).
  static std::string CacheKey(const core::EdgeModel& model,
                              const std::vector<text::Entity>& entities);
  static ServeResponse DegradedResponse(
      const ModelState& state, DegradeReason reason,
      std::chrono::steady_clock::time_point submitted);

  GeoServiceOptions options_;
  CompletionNotifier on_batch_done_;
  text::TweetNer ner_;

  /// Deterministic request ids: 1, 2, 3... in submission order per instance
  /// (serialized submitters therefore see identical ids at any worker
  /// budget; concurrent submitters get unique ids in arrival order).
  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<size_t> busy_workers_{0};
  /// Instance creation time; Health() reports the derived uptime so a fleet
  /// supervisor can distinguish a freshly respawned replica from a survivor.
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  /// Configured objectives over the process-global windowed instruments;
  /// null when telemetry is off.
  std::unique_ptr<obs::SloMonitor> slo_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Swapped wholesale by ReloadCheckpoint; read under mu_, then used
  /// lock-free via the snapshot.
  std::shared_ptr<const ModelState> state_;
  std::deque<Pending> queue_;
  LruCache<std::string, core::EdgePrediction> cache_;
  bool stop_ = false;
  bool paused_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace edge::serve

#endif  // EDGE_SERVE_GEO_SERVICE_H_
