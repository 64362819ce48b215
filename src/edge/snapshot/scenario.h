#ifndef EDGE_SNAPSHOT_SCENARIO_H_
#define EDGE_SNAPSHOT_SCENARIO_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "edge/common/status.h"
#include "edge/geo/latlon.h"
#include "edge/snapshot/system_snapshot.h"

/// \file
/// Scripted scenario driver over a SystemSnapshot (DESIGN.md §13): a
/// declarative event script — request bursts from the world's tweet pool,
/// flash-crowd entity skew, mid-stream hot reload, injected faults, region
/// outages, traffic spikes — replayed against the snapshot's GeoService,
/// emitting a canonical response stream and its FNV-1a digest.
///
/// Determinism contract: one replay of (snapshot, script) produces a
/// bitwise-identical stream on every run and at every worker budget.
/// The driver gets this by running each event in lockstep — workers paused,
/// every request of the event submitted (so cache-hit and queue-shed
/// decisions depend only on submission order), workers resumed, every future
/// drained in submission order before the next event. Deadlines are forced
/// off (expiry is wall-clock), and the canonical response line omits
/// latency_ms — the one nondeterministic response field. Golden digests
/// checked into tests/golden/ turn any behavioural drift in NER, prediction,
/// caching, shedding or reload into a test failure.
///
/// Script grammar (line-oriented; '#' comments and blank lines ignored):
///   EDGE-SCENARIO v1
///   name <scenario name>
///   seed <u64>                      # optional; default: snapshot RNG state
///   pool <n>                        # world tweets to pre-generate (default 256)
///   event burst <n>                 # n requests sampled from the pool
///   event skew <entity> <n>        # n identical requests naming one entity
///   event text <raw tweet text>     # one hand-written probe request
///   event reload                    # hot-swap the snapshot checkpoint in
///   event fault <EDGE_FAULT_SPEC>   # arm fault injection (e.g. latency)
///   event fault off                 # disarm all fault points
///   event outage <min_lat> <max_lat> <min_lon> <max_lon>
///                                   # region outage: pool sampling avoids box
///   event outage off

namespace edge::snapshot {

/// One scripted event.
struct ScenarioEvent {
  enum class Type { kBurst, kSkew, kText, kReload, kFault, kOutage };
  Type type = Type::kBurst;
  /// kBurst/kSkew: number of requests.
  size_t count = 0;
  /// kSkew: canonical entity name (underscores; rendered with spaces).
  std::string entity;
  /// kText: raw request text. kFault: the spec ("" = disarm).
  std::string text;
  /// kOutage: the dead region; `off` true means "lift the outage".
  geo::BoundingBox outage;
  bool off = false;
};

/// A parsed scenario script.
struct Scenario {
  std::string name;
  bool has_seed = false;
  uint64_t seed = 0;
  size_t pool_tweets = 256;
  std::vector<ScenarioEvent> events;
};

/// Parses a script (grammar above). Malformed scripts are a Status, never an
/// abort: unknown directives, bad counts, and missing fields all report the
/// offending line.
Result<Scenario> ParseScenario(const std::string& content);

/// Replay knobs. The worker override exists so the digest-invariance tests
/// can replay one snapshot at several worker budgets.
struct ScenarioRunOptions {
  /// Overrides snapshot serve_options.num_workers when > 0.
  size_t num_workers = 0;
  /// When set, every canonical stream line is also written here (with
  /// trailing newlines) as it is produced.
  std::ostream* out = nullptr;
};

/// A finished replay: the canonical stream, its digest, and tallies.
struct ScenarioResult {
  std::vector<std::string> lines;
  /// FNV-1a 64 over every line + '\n', as 16 lowercase hex digits.
  std::string digest;
  size_t requests = 0;
  size_t cache_hits = 0;
  size_t shed = 0;
};

/// Replays `scenario` against `snapshot` under the determinism contract
/// above. Fault points configured by the script are disarmed on every exit
/// path. Errors (unservable snapshot, unknown fault spec, an outage covering
/// the whole pool) come back as a Status.
Result<ScenarioResult> RunScenario(const SystemSnapshot& snapshot,
                                   const Scenario& scenario,
                                   const ScenarioRunOptions& options = {});

/// One checked-in golden replay record (tests/golden/*.golden): the digest a
/// scenario produced, pinned to the build fingerprint it was recorded under.
struct GoldenRecord {
  std::string scenario;     ///< Scenario name the digest belongs to.
  std::string fingerprint;  ///< BuildFingerprint() at record time.
  std::string digest;       ///< ScenarioResult::digest.
  size_t requests = 0;      ///< Request count, as a drift tripwire.
};

/// Reads/writes the golden file format ("EDGE-GOLDEN v1" + key-value lines).
/// Malformed files are a Status.
Result<GoldenRecord> ReadGoldenFile(const std::string& path);
Status WriteGoldenFile(const std::string& path, const GoldenRecord& record);

/// Fingerprint of everything that can legitimately change this build's
/// float results without a code bug: compiler, libm transcendentals, the
/// PCG32 stream, and a projection round-trip. Golden digests are compared
/// only between equal fingerprints (run-to-run and cross-worker-budget
/// identity is asserted unconditionally); a golden recorded under a
/// different toolchain is reported as skipped, not failed.
std::string BuildFingerprint();

}  // namespace edge::snapshot

#endif  // EDGE_SNAPSHOT_SCENARIO_H_
