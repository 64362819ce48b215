#include "edge/net/supervisor.h"

#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edge/net/socket_util.h"

namespace edge::net {
namespace {

// --- BackoffPolicy: the redial schedule must be capped, jittered and -------
// --- bitwise-replayable under a fixed seed ---------------------------------

BackoffPolicy::Options FastBackoff() {
  BackoffPolicy::Options options;
  options.base_ms = 100.0;
  options.max_ms = 800.0;
  options.multiplier = 2.0;
  options.jitter = 0.25;
  return options;
}

TEST(BackoffPolicyTest, SameSeedSameSchedule) {
  BackoffPolicy a(FastBackoff(), 42);
  BackoffPolicy b(FastBackoff(), 42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDelayMs(), b.NextDelayMs()) << "attempt " << i;
  }
}

TEST(BackoffPolicyTest, DifferentSeedsDiverge) {
  BackoffPolicy a(FastBackoff(), 1);
  BackoffPolicy b(FastBackoff(), 2);
  bool diverged = false;
  for (int i = 0; i < 5; ++i) {
    if (a.NextDelayMs() != b.NextDelayMs()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(BackoffPolicyTest, ClimbsExponentiallyWithinJitterBandAndCaps) {
  BackoffPolicy::Options options = FastBackoff();
  BackoffPolicy backoff(options, 7);
  double expected = options.base_ms;
  for (int attempt = 0; attempt < 8; ++attempt) {
    double delay = backoff.NextDelayMs();
    // delay in [expected * (1 - jitter), expected).
    EXPECT_GE(delay, expected * (1.0 - options.jitter)) << "attempt " << attempt;
    EXPECT_LT(delay, expected + 1e-9) << "attempt " << attempt;
    expected = std::min(expected * options.multiplier, options.max_ms);
  }
}

TEST(BackoffPolicyTest, ResetReturnsToBase) {
  BackoffPolicy::Options options = FastBackoff();
  options.jitter = 0.0;  // Exact values without a jitter band.
  BackoffPolicy backoff(options, 3);
  EXPECT_DOUBLE_EQ(backoff.NextDelayMs(), 100.0);
  EXPECT_DOUBLE_EQ(backoff.NextDelayMs(), 200.0);
  EXPECT_DOUBLE_EQ(backoff.NextDelayMs(), 400.0);
  backoff.Reset();
  EXPECT_DOUBLE_EQ(backoff.NextDelayMs(), 100.0);
}

TEST(BackoffPolicyTest, ZeroJitterNeverExceedsCap) {
  BackoffPolicy::Options options = FastBackoff();
  options.jitter = 0.0;
  BackoffPolicy backoff(options, 3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_LE(backoff.NextDelayMs(), options.max_ms);
  }
}

// --- FlapDetector ----------------------------------------------------------

TEST(FlapDetectorTest, TripsOnlyWhenDeathsLandInsideTheWindow) {
  FlapDetector flap(3, 10.0);
  EXPECT_FALSE(flap.RecordDeath(0.0));
  EXPECT_FALSE(flap.RecordDeath(4.0));
  EXPECT_TRUE(flap.RecordDeath(8.0));  // 3 deaths in 8s < 10s window.
}

TEST(FlapDetectorTest, OldDeathsAgeOut) {
  FlapDetector flap(3, 10.0);
  EXPECT_FALSE(flap.RecordDeath(0.0));
  EXPECT_FALSE(flap.RecordDeath(1.0));
  // 20s later the first two are outside the window: no trip.
  EXPECT_FALSE(flap.RecordDeath(20.0));
  EXPECT_EQ(flap.deaths_in_window(20.0), 1);
}

TEST(FlapDetectorTest, ZeroMaxDeathsDisablesTheBreaker) {
  FlapDetector flap(0, 10.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(flap.RecordDeath(static_cast<double>(i) * 0.01));
  }
}

// --- ReplicaSupervisor: the healing state machine --------------------------

ReplicaSupervisor::Options FastSup() {
  ReplicaSupervisor::Options options;
  options.backoff = FastBackoff();
  options.backoff.jitter = 0.0;  // Exact redial deadlines under a fake clock.
  options.readmit_probes = 2;
  options.flap_max_deaths = 3;
  options.flap_window_seconds = 10.0;
  options.quarantine_seconds = 5.0;
  return options;
}

TEST(ReplicaSupervisorTest, StartsUpAndTakesTraffic) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0);
  EXPECT_EQ(sup.state(), ReplicaHealth::kUp);
  EXPECT_TRUE(sup.TakesTraffic());
  EXPECT_FALSE(sup.ShouldDial(0.0));
}

TEST(ReplicaSupervisorTest, DeathEntersBackoffAndDialsAfterTheDelay) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0);
  sup.OnDown(1.0);
  EXPECT_EQ(sup.state(), ReplicaHealth::kBackoff);
  EXPECT_FALSE(sup.TakesTraffic());
  EXPECT_EQ(sup.deaths(), 1u);
  // base_ms = 100 with zero jitter: due exactly 0.1s after the death.
  EXPECT_FALSE(sup.ShouldDial(1.05));
  EXPECT_TRUE(sup.ShouldDial(1.1));
}

TEST(ReplicaSupervisorTest, ReadmissionRequiresNConsecutiveCleanProbes) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0);
  sup.OnDown(1.0);
  ASSERT_TRUE(sup.ShouldDial(1.2));
  sup.OnDialStart(1.2);
  EXPECT_EQ(sup.state(), ReplicaHealth::kConnecting);
  sup.OnConnected(1.3);
  EXPECT_EQ(sup.state(), ReplicaHealth::kProbation);
  EXPECT_FALSE(sup.TakesTraffic()) << "probation must not take traffic";
  sup.OnProbeOk(1.5);
  EXPECT_FALSE(sup.TakesTraffic()) << "one probe of two is not readmission";
  sup.OnProbeOk(1.7);
  EXPECT_EQ(sup.state(), ReplicaHealth::kUp);
  EXPECT_TRUE(sup.TakesTraffic());
  EXPECT_EQ(sup.redials(), 1u);
}

TEST(ReplicaSupervisorTest, ProbeFailureResetsTheStreakAndCountsAsDeath) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0);
  sup.OnDown(1.0);
  sup.OnDialStart(1.2);
  sup.OnConnected(1.3);
  sup.OnProbeOk(1.5);
  EXPECT_EQ(sup.probe_streak(), 1);
  sup.OnProbeFail(1.7);
  EXPECT_EQ(sup.state(), ReplicaHealth::kBackoff);
  EXPECT_EQ(sup.probe_streak(), 0);
  EXPECT_EQ(sup.deaths(), 2u);
  // Re-entering probation starts the streak over.
  ASSERT_TRUE(sup.ShouldDial(3.0));
  sup.OnDialStart(3.0);
  sup.OnConnected(3.1);
  sup.OnProbeOk(3.2);
  EXPECT_FALSE(sup.TakesTraffic());
  sup.OnProbeOk(3.3);
  EXPECT_TRUE(sup.TakesTraffic());
}

TEST(ReplicaSupervisorTest, DialFailureClimbsTheLadderWithoutFeedingBreaker) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0, ReplicaHealth::kBackoff);
  // An unroutable replica dials forever: many failed dials, zero deaths,
  // never quarantined.
  double now = 0.0;
  for (int i = 0; i < 10; ++i) {
    // Walk time forward until the next dial is due (max delay 0.8s).
    double due = now;
    while (!sup.ShouldDial(due)) due += 0.01;
    now = due;
    sup.OnDialStart(now);
    sup.OnDown(now + 0.05);  // Dial failed.
    now += 0.05;
    EXPECT_NE(sup.state(), ReplicaHealth::kQuarantined) << "attempt " << i;
  }
  EXPECT_EQ(sup.redials(), 10u);
  EXPECT_EQ(sup.deaths(), 0u);
  EXPECT_EQ(sup.breaker_trips(), 0u);
}

TEST(ReplicaSupervisorTest, FlappingReplicaIsQuarantinedWithReason) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0);
  // Three deaths (kUp -> down, heal, down, heal, down) inside the 10s window.
  sup.OnDown(1.0);
  sup.OnDialStart(1.2);
  sup.OnConnected(1.3);
  sup.OnProbeOk(1.4);
  sup.OnProbeOk(1.5);
  ASSERT_TRUE(sup.TakesTraffic());
  sup.OnDown(2.0);
  sup.OnDialStart(2.2);
  sup.OnConnected(2.3);
  sup.OnProbeOk(2.4);
  sup.OnProbeOk(2.5);
  ASSERT_TRUE(sup.TakesTraffic());
  sup.OnDown(3.0);  // Third death in 2s: breaker trips.
  EXPECT_EQ(sup.state(), ReplicaHealth::kQuarantined);
  EXPECT_EQ(sup.breaker_trips(), 1u);
  EXPECT_NE(sup.quarantine_reason().find("3 deaths"), std::string::npos)
      << sup.quarantine_reason();
  EXPECT_FALSE(sup.TakesTraffic());
  // No dialing during the 5s cooldown...
  EXPECT_FALSE(sup.ShouldDial(7.9));
  EXPECT_EQ(sup.state(), ReplicaHealth::kQuarantined);
  // ...then one fresh chance, immediately due.
  EXPECT_TRUE(sup.ShouldDial(8.1));
  EXPECT_EQ(sup.state(), ReplicaHealth::kBackoff);
}

TEST(ReplicaSupervisorTest, SinceTransitionTracksTheLatestStateChange) {
  ReplicaSupervisor sup(FastSup(), 1, 0.0);
  EXPECT_DOUBLE_EQ(sup.SinceTransition(5.0), 5.0);
  sup.OnDown(5.0);
  EXPECT_DOUBLE_EQ(sup.SinceTransition(7.5), 2.5);
}

TEST(ReplicaSupervisorTest, ReadmissionResetsTheBackoffLadder) {
  ReplicaSupervisor::Options options = FastSup();
  ReplicaSupervisor sup(options, 1, 0.0);
  // Climb the ladder twice (death, dial failure), then heal.
  sup.OnDown(0.0);
  ASSERT_TRUE(sup.ShouldDial(0.2));
  sup.OnDialStart(0.2);
  sup.OnDown(0.3);  // Dial failed -> second rung (200ms).
  EXPECT_FALSE(sup.ShouldDial(0.4));
  ASSERT_TRUE(sup.ShouldDial(0.55));
  sup.OnDialStart(0.55);
  sup.OnConnected(0.6);
  sup.OnProbeOk(0.7);
  sup.OnProbeOk(0.8);
  ASSERT_TRUE(sup.TakesTraffic());
  // The next death starts back at the 100ms rung.
  sup.OnDown(20.0);
  EXPECT_FALSE(sup.ShouldDial(20.05));
  EXPECT_TRUE(sup.ShouldDial(20.1));
}

// --- fleet config parsing --------------------------------------------------

TEST(FleetConfigTest, ParsesReplicaLinesCommentsAndBlanks) {
  Result<FleetConfig> config = ParseFleetConfig(
      "# fleet of two\n"
      "replica 127.0.0.1:7071 ./edge_serve --model m.edge --listen 7071\n"
      "\n"
      "replica 127.0.0.1:7072 ./edge_serve --listen 7072  # trailing note\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config.value().replicas.size(), 2u);
  EXPECT_EQ(config.value().replicas[0].addr, "127.0.0.1:7071");
  ASSERT_EQ(config.value().replicas[0].argv.size(), 5u);
  EXPECT_EQ(config.value().replicas[0].argv[0], "./edge_serve");
  EXPECT_EQ(config.value().replicas[0].argv[4], "7071");
  EXPECT_EQ(config.value().replicas[1].argv.size(), 3u);
}

TEST(FleetConfigTest, RejectsUnknownKeyword) {
  EXPECT_FALSE(ParseFleetConfig("server 127.0.0.1:7071 ./edge_serve\n").ok());
}

TEST(FleetConfigTest, RejectsMissingCommand) {
  EXPECT_FALSE(ParseFleetConfig("replica 127.0.0.1:7071\n").ok());
}

TEST(FleetConfigTest, RejectsBadAddress) {
  EXPECT_FALSE(ParseFleetConfig("replica nocolon ./edge_serve\n").ok());
}

TEST(FleetConfigTest, RejectsDuplicateAddresses) {
  EXPECT_FALSE(ParseFleetConfig(
                   "replica 127.0.0.1:7071 ./a\n"
                   "replica 127.0.0.1:7071 ./b\n")
                   .ok());
}

TEST(FleetConfigTest, RejectsEmptyConfig) {
  EXPECT_FALSE(ParseFleetConfig("# nothing here\n").ok());
}

// --- child processes -------------------------------------------------------

TEST(ProcessTest, SpawnReapRoundTrip) {
  Result<int> pid = SpawnProcess({"/bin/sh", "-c", "exit 7"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  int code = -1;
  // WNOHANG: poll until the child exits.
  for (int spins = 0; spins < 1000 && !ReapProcess(pid.value(), &code);
       ++spins) {
    ::usleep(2000);
  }
  EXPECT_EQ(code, 7);
}

TEST(ProcessTest, SignalDeathReportsNegativeSignal) {
  Result<int> pid = SpawnProcess({"/bin/sh", "-c", "sleep 30"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  TerminateProcess(pid.value(), /*force=*/true);  // SIGKILL.
  int code = 0;
  for (int spins = 0; spins < 1000 && !ReapProcess(pid.value(), &code);
       ++spins) {
    ::usleep(2000);
  }
  EXPECT_EQ(code, -SIGKILL);
}

/// True while `pid` runs. A killed orphan stays a zombie until its new
/// parent reaps it, and kill(pid, 0) still succeeds on a zombie, so the
/// state letter in /proc/<pid>/stat decides.
bool ProcessRunning(pid_t pid) {
  if (::kill(pid, 0) != 0) return errno != ESRCH;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  size_t paren = line.rfind(')');  // The command name may contain spaces.
  return paren == std::string::npos || paren + 2 >= line.size() ||
         line[paren + 2] != 'Z';
}

TEST(ProcessTest, TerminateKillsTheWholeProcessGroup) {
  // A wrapper shell whose child is a separate process (the shell stays to
  // wait, so it cannot exec into it): a fleet replica launched through a
  // script. Killing only the wrapper would orphan the replica.
  std::string pid_file = (std::filesystem::temp_directory_path() /
                          ("edge-pgid-" + std::to_string(::getpid())))
                             .string();
  std::filesystem::remove(pid_file);
  Result<int> pid = SpawnProcess(
      {"/bin/sh", "-c", "sleep 30 & echo $! > " + pid_file + "; wait"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  pid_t grandchild = 0;
  for (int spins = 0; spins < 1000 && grandchild <= 0; ++spins) {
    std::ifstream in(pid_file);
    if (!(in >> grandchild)) grandchild = 0;
    if (grandchild <= 0) ::usleep(2000);
  }
  ASSERT_GT(grandchild, 0) << "wrapper never recorded its child's pid";

  TerminateProcess(pid.value(), /*force=*/true);
  int code = 0;
  for (int spins = 0; spins < 1000 && !ReapProcess(pid.value(), &code);
       ++spins) {
    ::usleep(2000);
  }
  EXPECT_EQ(code, -SIGKILL);
  bool survived = ProcessRunning(grandchild);
  for (int spins = 0; spins < 500 && survived; ++spins) {
    ::usleep(2000);
    survived = ProcessRunning(grandchild);
  }
  EXPECT_FALSE(survived) << "grandchild " << grandchild << " outlived the kill";
  if (survived) ::kill(grandchild, SIGKILL);  // Never leak it past the test.
  std::filesystem::remove(pid_file);
}

TEST(ProcessTest, ExecFailureExits127) {
  Result<int> pid = SpawnProcess({"/nonexistent-binary-for-edge-test"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  int code = -1;
  for (int spins = 0; spins < 1000 && !ReapProcess(pid.value(), &code);
       ++spins) {
    ::usleep(2000);
  }
  EXPECT_EQ(code, 127);
}

}  // namespace
}  // namespace edge::net
