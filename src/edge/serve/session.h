#ifndef EDGE_SERVE_SESSION_H_
#define EDGE_SERVE_SESSION_H_

#include <deque>
#include <future>
#include <string>
#include <vector>

#include "edge/serve/geo_service.h"
#include "edge/serve/json_codec.h"

/// \file
/// Per-stream LDJSON request processing over a GeoService: exactly one
/// response line per request line, in input order. One ServeSession serves
/// one ordered stream — the stdin/stdout pipe, or one socket connection of
/// the networked tier — so N concurrent connections are N sessions sharing
/// one service (and its admission queue, cache and model generation).
///
/// The session pipelines: up to max_in_flight requests ride the service's
/// batch path concurrently while earlier answers render, so a client that
/// sends ahead keeps the workers busy. Control verbs (reload/stats/health) and
/// malformed-line errors are answered as literal lines that keep their slot
/// in the output order. A reload waits for the stream's earlier predictions
/// before it swaps the model, so every answer before its acknowledgement
/// comes from the old model and every answer after it from the new one.

namespace edge::serve {

struct ServeSessionOptions {
  /// Responses kept in flight before the stream should stop reading
  /// (callers gate on AtCapacity()): a bound on per-stream buffering.
  size_t max_in_flight = 64;
  /// False renders canonical lines (no wall-clock latency_ms / telemetry):
  /// the form that is a deterministic function of (model, request stream),
  /// which the parity harnesses diff bitwise across process boundaries.
  bool include_latency = true;
};

class ServeSession {
 public:
  ServeSession(GeoService* geo, ServeSessionOptions options);

  /// Feeds one request line (parse -> submit / control verb / error slot).
  void HandleLine(const std::string& line);

  /// Queues the rejection for a line the framer discarded as oversized; it
  /// occupies its slot in the output order like any other answer.
  void HandleOversized();

  /// True when the oldest in-flight response can render without blocking.
  bool FrontReady() const;

  /// Renders every ready response in order into *out (non-blocking).
  void DrainReady(std::vector<std::string>* out);

  /// Blocks until everything in flight has rendered (shutdown drain).
  void DrainAll(std::vector<std::string>* out);

  bool AtCapacity() const { return in_flight_.size() >= options_.max_in_flight; }
  size_t in_flight() const { return in_flight_.size(); }
  size_t lines() const { return line_number_; }
  size_t bad_lines() const { return bad_lines_; }

 private:
  /// One ordered output slot: a pending prediction future or an
  /// already-rendered literal line (control acknowledgements, errors).
  struct InFlight {
    std::string id;
    std::future<ServeResponse> future;
    bool is_literal = false;
    std::string literal;
  };

  std::string Render(InFlight* slot) const;

  GeoService* geo_;
  ServeSessionOptions options_;
  std::deque<InFlight> in_flight_;
  size_t line_number_ = 0;
  size_t bad_lines_ = 0;
};

/// Rendered acknowledgement for a reload attempt ("ok" + generation, or
/// "failed" + the JSON-escaped error).
std::string ReloadResultLine(const std::string& id, const Status& status,
                             uint64_t generation);

/// Wraps an already-rendered JSON body as {"id":...,"<key>":<body>}.
std::string ControlResultLine(const std::string& id, const char* key,
                              const std::string& body);

/// Structured rejection for a malformed request line: the parse error plus
/// the 1-based input line number, always valid JSON.
std::string BadRequestLine(const std::string& error, size_t line_number);

}  // namespace edge::serve

#endif  // EDGE_SERVE_SESSION_H_
