#include "edge/net/supervisor.h"

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace edge::net {

namespace {

/// xorshift64* — the same generator the fault layer's injection streams use
/// (edge/fault/fault.cc), duplicated here because edge_net sits beside, not
/// above, edge_fault. Identical seeds give identical jitter sequences, which
/// is what makes redial drills replayable.
double NextUniform(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) *
         (1.0 / 9007199254740992.0);
}

}  // namespace

// --- BackoffPolicy ----------------------------------------------------------

BackoffPolicy::BackoffPolicy(const Options& options, uint64_t seed)
    : options_(options), rng_state_(seed == 0 ? 0x9E3779B97F4A7C15ULL : seed) {}

double BackoffPolicy::NextDelayMs() {
  double delay = options_.base_ms;
  for (int i = 0; i < attempt_ && delay < options_.max_ms; ++i) {
    delay *= options_.multiplier;
  }
  delay = std::min(delay, options_.max_ms);
  ++attempt_;
  if (options_.jitter > 0.0) {
    // Scale into [1 - jitter, 1): full-delay upper bound, never zero.
    delay *= 1.0 - options_.jitter + options_.jitter * NextUniform(&rng_state_);
  }
  return delay;
}

void BackoffPolicy::Reset() { attempt_ = 0; }

// --- FlapDetector -----------------------------------------------------------

bool FlapDetector::RecordDeath(double now) {
  deaths_.push_back(now);
  while (!deaths_.empty() && deaths_.front() < now - window_seconds_) {
    deaths_.pop_front();
  }
  return max_deaths_ > 0 && static_cast<int>(deaths_.size()) >= max_deaths_;
}

int FlapDetector::deaths_in_window(double now) const {
  int count = 0;
  for (double t : deaths_) {
    if (t >= now - window_seconds_) ++count;
  }
  return count;
}

// --- ReplicaSupervisor ------------------------------------------------------

const char* ReplicaHealthName(ReplicaHealth state) {
  switch (state) {
    case ReplicaHealth::kUp: return "up";
    case ReplicaHealth::kConnecting: return "connecting";
    case ReplicaHealth::kBackoff: return "backoff";
    case ReplicaHealth::kProbation: return "probation";
    case ReplicaHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

ReplicaSupervisor::ReplicaSupervisor(const Options& options, uint64_t seed,
                                     double now, ReplicaHealth initial)
    : options_(options),
      backoff_(options.backoff, seed),
      flap_(options.flap_max_deaths, options.flap_window_seconds),
      state_(initial),
      last_transition_(now) {
  if (initial == ReplicaHealth::kBackoff) next_dial_ = now;  // Dial at once.
}

void ReplicaSupervisor::Transition(ReplicaHealth next, double now) {
  state_ = next;
  last_transition_ = now;
}

void ReplicaSupervisor::EnterBackoff(double now) {
  next_dial_ = now + backoff_.NextDelayMs() / 1000.0;
  Transition(ReplicaHealth::kBackoff, now);
}

void ReplicaSupervisor::RecordDeath(double now) {
  ++deaths_;
  probe_streak_ = 0;
  if (flap_.RecordDeath(now)) {
    ++breaker_trips_;
    char reason[96];
    std::snprintf(reason, sizeof(reason), "%d deaths in %.1fs",
                  flap_.deaths_in_window(now), options_.flap_window_seconds);
    quarantine_reason_ = reason;
    quarantine_until_ = now + options_.quarantine_seconds;
    Transition(ReplicaHealth::kQuarantined, now);
    return;
  }
  EnterBackoff(now);
}

void ReplicaSupervisor::OnConnected(double now) {
  if (state_ == ReplicaHealth::kQuarantined) return;  // Stale dial; ignore.
  probe_streak_ = 0;
  Transition(ReplicaHealth::kProbation, now);
}

void ReplicaSupervisor::OnDown(double now) {
  switch (state_) {
    case ReplicaHealth::kUp:
    case ReplicaHealth::kProbation:
      RecordDeath(now);
      return;
    case ReplicaHealth::kConnecting:
      // A failed or timed-out dial climbs the ladder without feeding the
      // breaker — a replica that is still booting is not flapping.
      EnterBackoff(now);
      return;
    case ReplicaHealth::kBackoff:
    case ReplicaHealth::kQuarantined:
      return;  // Already down.
  }
}

void ReplicaSupervisor::OnProbeOk(double now) {
  if (state_ != ReplicaHealth::kProbation) return;
  if (++probe_streak_ >= options_.readmit_probes) {
    backoff_.Reset();
    Transition(ReplicaHealth::kUp, now);
  }
}

void ReplicaSupervisor::OnProbeFail(double now) {
  if (state_ != ReplicaHealth::kProbation && state_ != ReplicaHealth::kUp) {
    return;
  }
  RecordDeath(now);
}

void ReplicaSupervisor::OnDialStart(double now) {
  ++redials_;
  Transition(ReplicaHealth::kConnecting, now);
}

bool ReplicaSupervisor::ShouldDial(double now) {
  if (state_ == ReplicaHealth::kQuarantined && now >= quarantine_until_) {
    // Cooldown over: one fresh chance. Another flap burst re-trips.
    next_dial_ = now;
    Transition(ReplicaHealth::kBackoff, now);
  }
  return state_ == ReplicaHealth::kBackoff && now >= next_dial_;
}

// --- fleet config -----------------------------------------------------------

Result<FleetConfig> ParseFleetConfig(const std::string& text) {
  FleetConfig config;
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string keyword;
    if (!(fields >> keyword)) continue;  // Blank / comment-only line.
    if (keyword != "replica") {
      return Status::InvalidArgument("fleet config line " +
                                     std::to_string(line_number) +
                                     ": expected 'replica', got '" + keyword +
                                     "'");
    }
    FleetReplicaSpec spec;
    if (!(fields >> spec.addr)) {
      return Status::InvalidArgument("fleet config line " +
                                     std::to_string(line_number) +
                                     ": missing host:port");
    }
    size_t colon = spec.addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.addr.size()) {
      return Status::InvalidArgument("fleet config line " +
                                     std::to_string(line_number) + ": '" +
                                     spec.addr + "' is not host:port");
    }
    std::string token;
    while (fields >> token) spec.argv.push_back(std::move(token));
    if (spec.argv.empty()) {
      return Status::InvalidArgument("fleet config line " +
                                     std::to_string(line_number) +
                                     ": missing command for " + spec.addr);
    }
    for (const FleetReplicaSpec& existing : config.replicas) {
      if (existing.addr == spec.addr) {
        return Status::InvalidArgument("fleet config line " +
                                       std::to_string(line_number) +
                                       ": duplicate replica " + spec.addr);
      }
    }
    config.replicas.push_back(std::move(spec));
  }
  if (config.replicas.empty()) {
    return Status::InvalidArgument("fleet config has no replica lines");
  }
  return config;
}

Result<FleetConfig> LoadFleetConfig(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open fleet config " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseFleetConfig(text.str());
}

// --- child processes --------------------------------------------------------

#ifndef _WIN32

Result<int> SpawnProcess(const std::vector<std::string>& argv) {
  if (argv.empty()) return Status::InvalidArgument("empty argv");
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    c_argv.push_back(const_cast<char*>(arg.c_str()));
  }
  c_argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Lead a process group of its own, so TerminateProcess reaches
    // whatever the replica itself spawns (a wrapper shell's children).
    ::setpgid(0, 0);
    // The router's listen socket, client connections and replica links must
    // not leak into the replica: close everything above stdio.
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    ::execvp(c_argv[0], c_argv.data());
    std::fprintf(stderr, "edge fleet: exec %s: %s\n", c_argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  // Also set from the parent, so the group exists before this returns no
  // matter which process runs first (EACCES once the child has exec'd is
  // harmless: the child set it already).
  ::setpgid(pid, pid);
  return static_cast<int>(pid);
}

bool ReapProcess(int pid, int* exit_code) {
  int status = 0;
  pid_t rc = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
  if (rc != static_cast<pid_t>(pid)) return false;
  if (exit_code != nullptr) {
    if (WIFEXITED(status)) {
      *exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      *exit_code = -WTERMSIG(status);
    } else {
      *exit_code = -1;
    }
  }
  return true;
}

void TerminateProcess(int pid, bool force) {
  if (pid <= 0) return;
  const int sig = force ? SIGKILL : SIGTERM;
  // The whole group SpawnProcess made; the pid alone if it has no group.
  if (::kill(-static_cast<pid_t>(pid), sig) != 0) ::kill(static_cast<pid_t>(pid), sig);
}

#else  // _WIN32: the fleet mode is POSIX-only; stubs keep the library linking.

Result<int> SpawnProcess(const std::vector<std::string>&) {
  return Status::FailedPrecondition("fleet process supervision requires POSIX");
}
bool ReapProcess(int, int*) { return false; }
void TerminateProcess(int, bool) {}

#endif

}  // namespace edge::net
