#ifndef EDGE_NET_SUPERVISOR_H_
#define EDGE_NET_SUPERVISOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "edge/common/status.h"

/// \file
/// Self-healing fleet components for the serving tier (DESIGN.md §17): the
/// deterministic redial backoff schedule, the per-replica health state
/// machine that gates ring readmission on consecutive clean probes, the
/// flap-detecting circuit breaker, and the `--fleet` config / child-process
/// helpers the router's supervised mode is built from.
///
/// Everything here is pure logic over a caller-supplied clock (seconds as a
/// double, monotonic) — no sockets, no threads, no wall time — so the whole
/// healing state machine is unit-testable and every chaos drill is
/// replayable: the jitter stream is the same seeded xorshift64* generator
/// the fault layer uses (edge/fault), so a fixed seed yields a fixed redial
/// schedule.

namespace edge::net {

/// Capped exponential backoff with deterministic jitter. Delay for attempt
/// k is min(base * multiplier^k, max) * (1 - jitter + jitter * U) with U
/// drawn from a seeded xorshift64* stream (the edge/fault generator), so two
/// supervisors with the same seed produce bitwise-identical schedules.
class BackoffPolicy {
 public:
  struct Options {
    double base_ms = 100.0;    ///< First-retry delay.
    double max_ms = 5000.0;    ///< Cap on the exponential growth.
    double multiplier = 2.0;   ///< Growth factor per consecutive failure.
    double jitter = 0.25;      ///< Fraction of the delay randomized, [0, 1].
  };

  BackoffPolicy(const Options& options, uint64_t seed);

  /// Delay before the next dial attempt; consecutive calls without Reset()
  /// walk the exponential ladder (attempt 0, 1, 2, ...).
  double NextDelayMs();

  /// Back to attempt 0 (a replica was successfully readmitted). The jitter
  /// stream is NOT rewound — determinism is per call sequence, not per reset.
  void Reset();

  int attempt() const { return attempt_; }

 private:
  Options options_;
  uint64_t rng_state_;
  int attempt_ = 0;
};

/// Sliding-window death counter: Trips() when `max_deaths` deaths landed
/// within the trailing `window_seconds`. The window is evaluated lazily at
/// RecordDeath time against the caller's clock.
class FlapDetector {
 public:
  FlapDetector(int max_deaths, double window_seconds)
      : max_deaths_(max_deaths), window_seconds_(window_seconds) {}

  /// Records a death at `now`; returns true when this death trips the
  /// breaker (>= max_deaths within the window, max_deaths > 0).
  bool RecordDeath(double now);

  int deaths_in_window(double now) const;

 private:
  int max_deaths_;
  double window_seconds_;
  std::deque<double> deaths_;
};

/// Per-replica health state (DESIGN.md §17 state machine).
enum class ReplicaHealth {
  kUp,           ///< In the ring, taking traffic.
  kConnecting,   ///< A dial is in flight.
  kBackoff,      ///< Down; waiting out the redial delay.
  kProbation,    ///< Connected but not readmitted: probes must pass first.
  kQuarantined,  ///< Circuit breaker tripped; no dialing until cooldown ends.
};

/// "up" / "connecting" / "backoff" / "probation" / "quarantined".
const char* ReplicaHealthName(ReplicaHealth state);

/// The healing state machine for one replica. The owner (the router) feeds
/// it events — connection established/lost, probe outcomes, dial failures —
/// and asks it two questions each loop tick: ShouldDial(now)? and
/// TakesTraffic()? All timing flows through the injected `now`, so tests
/// drive it with a fake clock and the schedule is deterministic.
///
/// Transitions:
///   kUp         --OnDown-->                 kBackoff | kQuarantined (flap)
///   kBackoff    --ShouldDial/OnDialStart--> kConnecting
///   kConnecting --OnConnected-->            kProbation (streak = 0)
///   kConnecting --OnDown (dial failed)-->   kBackoff (attempt++)
///   kProbation  --OnProbeOk x N-->          kUp (backoff reset)
///   kProbation  --OnProbeFail | OnDown-->   kBackoff | kQuarantined (flap)
///   kQuarantined --cooldown elapsed-->      kBackoff (one fresh chance)
///
/// Deaths (transitions out of kUp/kProbation on failure) feed the flap
/// detector; dial failures only climb the backoff ladder — an unreachable
/// address redials forever at the capped rate without ever tripping the
/// breaker, which is the desired behaviour for a replica that is merely
/// still booting.
class ReplicaSupervisor {
 public:
  struct Options {
    BackoffPolicy::Options backoff;
    /// Consecutive clean probe replies required to readmit from probation.
    int readmit_probes = 2;
    /// Circuit breaker: this many deaths within flap_window_seconds
    /// quarantines the replica. 0 disables the breaker.
    int flap_max_deaths = 5;
    double flap_window_seconds = 30.0;
    /// Quarantine cooldown before the replica may dial again.
    double quarantine_seconds = 30.0;
  };

  /// `seed` fixes the jitter stream (the router hashes the replica address).
  ReplicaSupervisor(const Options& options, uint64_t seed, double now,
                    ReplicaHealth initial = ReplicaHealth::kUp);

  // --- events --------------------------------------------------------------

  /// The connection is established (dial completed): enter probation.
  void OnConnected(double now);
  /// The connection dropped, the dial failed or timed out, or the process
  /// died. From kUp/kProbation this is a death (feeds the breaker); from
  /// kConnecting it is a dial failure (climbs the backoff ladder only).
  void OnDown(double now);
  /// A clean probe reply while in probation (or up — resets nothing there).
  void OnProbeOk(double now);
  /// A probe timed out or came back malformed. In probation/up this is
  /// treated as a death: the caller should also drop the connection.
  void OnProbeFail(double now);
  /// The caller started a dial (after ShouldDial returned true).
  void OnDialStart(double now);

  // --- decisions -----------------------------------------------------------

  /// True when the owner should start a dial attempt now: the replica is in
  /// backoff past its redial deadline, or its quarantine cooldown elapsed
  /// (which first moves it to kBackoff with a zero deadline).
  bool ShouldDial(double now);

  /// True when the replica may take traffic (kUp).
  bool TakesTraffic() const { return state_ == ReplicaHealth::kUp; }

  // --- observability -------------------------------------------------------

  ReplicaHealth state() const { return state_; }
  const char* state_name() const { return ReplicaHealthName(state_); }
  uint64_t redials() const { return redials_; }
  uint64_t deaths() const { return deaths_; }
  uint64_t breaker_trips() const { return breaker_trips_; }
  int probe_streak() const { return probe_streak_; }
  /// Seconds since the last state transition.
  double SinceTransition(double now) const { return now - last_transition_; }
  /// Human-readable breaker reason; empty unless quarantined at least once.
  const std::string& quarantine_reason() const { return quarantine_reason_; }

 private:
  void Transition(ReplicaHealth next, double now);
  /// Shared death path: breaker bookkeeping, then backoff or quarantine.
  void RecordDeath(double now);
  void EnterBackoff(double now);

  Options options_;
  BackoffPolicy backoff_;
  FlapDetector flap_;
  ReplicaHealth state_;
  double last_transition_;
  double next_dial_ = 0.0;         ///< Redial deadline while in kBackoff.
  double quarantine_until_ = 0.0;  ///< Cooldown deadline while quarantined.
  int probe_streak_ = 0;
  uint64_t redials_ = 0;
  uint64_t deaths_ = 0;
  uint64_t breaker_trips_ = 0;
  std::string quarantine_reason_;
};

// --- supervised fleets (--fleet CONFIG) ------------------------------------

/// One replica of a supervised fleet: the address the router dials plus the
/// argv the router spawns (and respawns) it from.
struct FleetReplicaSpec {
  std::string addr;                ///< host:port, must match the argv's bind.
  std::vector<std::string> argv;   ///< argv[0] = binary path.
};

struct FleetConfig {
  std::vector<FleetReplicaSpec> replicas;
};

/// Parses a fleet config. Line grammar (whitespace-separated, '#' comments):
///
///   replica <host:port> <binary> [arg...]
///
/// Every replica line needs a routable fixed-port address and a non-empty
/// argv; duplicates addresses are rejected. Tokens are split on whitespace —
/// no quoting — so paths with spaces are unsupported by design.
Result<FleetConfig> ParseFleetConfig(const std::string& text);

/// ParseFleetConfig over a file's contents.
Result<FleetConfig> LoadFleetConfig(const std::string& path);

/// fork/execs `argv` with stdio inherited and every descriptor >= 3 closed
/// in the child (the router's listen socket and replica links must not leak
/// into replicas). The child leads a new process group (pgid == pid).
/// Returns the child pid.
Result<int> SpawnProcess(const std::vector<std::string>& argv);

/// Non-blocking reap: true when `pid` has exited (WNOHANG); *exit_code gets
/// the exit status or -signal for a signal death.
bool ReapProcess(int pid, int* exit_code);

/// SIGTERM (force=false) or SIGKILL (force=true) to the process group of a
/// SpawnProcess child, so nothing it spawned outlives it.
void TerminateProcess(int pid, bool force);

}  // namespace edge::net

#endif  // EDGE_NET_SUPERVISOR_H_
