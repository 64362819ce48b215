#ifndef EDGE_OBS_TRACE_CONTEXT_H_
#define EDGE_OBS_TRACE_CONTEXT_H_

#include <cstdint>

/// \file
/// Per-request trace context: a deterministic request id plus begin/end
/// microsecond stamps for each lifecycle stage of a served request
/// (submit -> NER -> cache probe -> admission queue -> micro-batch ->
/// predict -> respond). The context travels with the request through the
/// admission queue; at response time the stamps become (a) the per-stage
/// latency waterfall attached to the response JSON under "telemetry" and
/// (b) parented Chrome async spans on the request-id track when tracing
/// is enabled.

namespace edge::obs {

/// Stages of one served request, in waterfall order. kQueue..kPredict are
/// absent for cache hits and degraded (shed / expired-deadline) responses.
enum class RequestStage : int {
  kNer = 0,     ///< Submit-side entity extraction.
  kCacheProbe,  ///< LRU lookup on the sorted entity-id key.
  kQueue,       ///< Admission-queue wait (enqueue -> worker pickup).
  kBatch,       ///< Worker pickup -> response set (whole micro-batch drain).
  kPredict,     ///< Model inference for the batch's live requests (shared stamps).
  kStageCount
};

/// Stable lowercase stage label ("ner", "cache", "queue", ...), used both in
/// response-JSON telemetry keys ("<name>_ms") and trace span names.
const char* RequestStageName(RequestStage stage);

/// Not thread-safe by itself: at most one thread touches a context at a time
/// (submit thread until enqueue, then exactly one worker under the service
/// mutex). Stamps use the shared trace timeline (TraceNowMicros), so spans
/// from different requests and EDGE_TRACE_SPAN scopes line up in the viewer.
class TraceContext {
 public:
  TraceContext() = default;
  explicit TraceContext(uint64_t request_id) : request_id_(request_id) {}

  /// 0 means "no telemetry" (a default-constructed context).
  uint64_t request_id() const { return request_id_; }

  void Begin(RequestStage stage);
  void End(RequestStage stage);
  /// Stamps both ends at once — for a batch-wide stage measured once and
  /// copied into each member request's context.
  void SetStage(RequestStage stage, uint64_t begin_us, uint64_t end_us);

  bool HasStage(RequestStage stage) const;
  /// Stage duration in milliseconds; 0 when the stage was never recorded.
  double StageMs(RequestStage stage) const;

  /// Emits one async Chrome span per recorded stage plus an umbrella
  /// "edge.request" span, all on the request-id track. No-op when tracing
  /// is off.
  void ExportSpans() const;

 private:
  static constexpr int kStageCount = static_cast<int>(RequestStage::kStageCount);

  uint64_t request_id_ = 0;
  uint64_t begin_us_[kStageCount] = {};
  uint64_t end_us_[kStageCount] = {};
  // Bitmask of stages whose End/SetStage ran — a timestamp of 0 is a valid
  // instant at the trace origin, so presence cannot be inferred from stamps.
  uint32_t recorded_ = 0;
};

}  // namespace edge::obs

#endif  // EDGE_OBS_TRACE_CONTEXT_H_
