#ifndef EDGE_SERVE_JSON_CODEC_H_
#define EDGE_SERVE_JSON_CODEC_H_

#include <string>

#include "edge/core/edge_model.h"
#include "edge/serve/geo_service.h"

/// \file
/// Line-delimited JSON wire format for tools/edge_serve and the networked
/// tier behind tools/edge_router. One request line in, one response line
/// out, in order — per stream (the stdin pipe, or one TCP connection).
///
/// Request lines are either raw tweet text or a flat JSON object:
///   {"text": "pizza near @nypl", "id": "req-7", "deadline_ms": 15}
/// A line whose first non-space character is '{' is parsed as JSON; anything
/// else is taken verbatim as the tweet text.
///
/// The accepted JSON grammar (DESIGN.md §16) is strict RFC 8259 restricted
/// to one flat object per line:
///   - values are strings, numbers, true/false or null; nested objects and
///     arrays are rejected (`{"x": {}}` is an error, not a skip);
///   - numbers are `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` and must
///     be finite: strtod-isms (`nan`, `inf`, hex floats, leading zeros or
///     `+`) and overflow (`1e999`) are parse errors;
///   - string escapes are RFC 8259's; `\uXXXX` decodes UTF-16, combining
///     surrogate pairs into one 4-byte UTF-8 code point (an escaped emoji is
///     real UTF-8, not two CESU-8 triples) and rejecting lone surrogates;
///   - unescaped bytes >= 0x80 must be well-formed UTF-8 (RFC 3629): stray
///     continuation bytes, overlongs, encoded surrogates, code points above
///     U+10FFFF and cut-short sequences are parse errors, so a string echoed
///     into an answer (the id, a failed reload's path) keeps it JSON;
///   - every key must carry a value (`{"x":}` is an error) and nothing may
///     follow the closing brace;
///   - unknown keys with scalar values are skipped, so old clients keep
///     working against newer servers.
///
/// Response lines carry the full mixture (per-component weight, lat/lon
/// center, km sigmas, rho and the 95% confidence ellipse), the Eq. 14 mode
/// point, per-entity attention and the serving metadata (cache/degrade flags,
/// latency). See README "Serving" for the schema.

namespace edge::serve {

/// One parsed request line.
struct ServeRequest {
  std::string text;
  std::string id;  ///< Echoed back in the response; may be empty.
  /// Per-request deadline override; < 0 = use the service default.
  double deadline_ms = -1.0;
  /// Control line {"reload": "path.edge"}: hot-swap the served model from
  /// this checkpoint instead of predicting. Non-empty means control line.
  std::string reload_path;
  /// Control line {"stats": true}: answer the sliding-window stats + SLO
  /// evaluations instead of predicting.
  bool stats = false;
  /// Control line {"health": true}: answer the health snapshot.
  bool health = false;
  /// True when the line carried a "text" key (an empty text is a valid
  /// request; a JSON object with neither text nor a control verb is not).
  bool has_text = false;
};

/// Parses a raw-text or flat-JSON request line (see file comment). Returns
/// false and sets *error on malformed JSON — including a JSON object that
/// carries neither "text" nor a control verb (reload/stats/health), which
/// earlier versions silently served as an empty-text prediction. Raw text
/// lines always succeed.
bool ParseRequestLine(const std::string& line, ServeRequest* request,
                      std::string* error);

/// Renders one response as a single JSON line (no trailing newline). `model`
/// supplies the plane->lat/lon projection for component centers and ellipses.
/// With include_latency=false the wall-clock latency_ms field AND the
/// "telemetry" waterfall object are omitted — the canonical form the
/// scenario harness digests, since wall-clock timings are the fields of a
/// served response that are not a deterministic function of
/// (snapshot, request stream).
std::string ResponseToJsonLine(const ServeResponse& response,
                               const core::EdgeModel& model,
                               const std::string& id,
                               bool include_latency = true);

}  // namespace edge::serve

#endif  // EDGE_SERVE_JSON_CODEC_H_
