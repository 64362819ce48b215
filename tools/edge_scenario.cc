/// Scenario harness CLI over the system snapshot layer (DESIGN.md §13).
///
///   # Train the demo fixture and save it as a snapshot directory:
///   edge_scenario make --out /tmp/snap [--world nyma] [--tweets 2000] [--fast]
///
///   # Replay a scripted scenario against it (canonical stream on stdout,
///   # digest summary on stderr):
///   edge_scenario run --snapshot /tmp/snap --script tests/golden/steady_traffic.scenario
///
///   # Verify against / refresh a checked-in golden digest:
///   edge_scenario run --snapshot /tmp/snap --script S --golden G
///   edge_scenario run --snapshot /tmp/snap --script S --golden G --update-goldens
///
/// `run` exits non-zero on replay errors and on a golden digest mismatch
/// under a matching build fingerprint; a fingerprint mismatch (different
/// toolchain/libm than the recording) is reported and skipped. Both commands
/// exit 2 on a flag they do not read, so a typo or a removed option is never
/// silently ignored.

#include <cstdio>
#include <iostream>

#include "edge/common/file_util.h"
#include "edge/snapshot/fixture.h"
#include "edge/snapshot/scenario.h"
#include "edge/snapshot/system_snapshot.h"
#include "tool_args.h"

namespace edge {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  edge_scenario make --out DIR [--world nyma|ny2020|lama]\n"
               "                     [--tweets N] [--epochs N] [--seed N] [--fast]\n"
               "  edge_scenario run  --snapshot DIR --script FILE [--workers N]\n"
               "                     [--quiet] [--golden FILE] [--update-goldens]\n");
  return 2;
}

int RunMake(const tools::Args& args) {
  std::string out_dir = args.Get("out");
  if (out_dir.empty()) {
    std::fprintf(stderr, "make: --out DIR is required\n");
    return 2;
  }
  snapshot::DemoSnapshotOptions options;
  if (args.Has("fast") || snapshot::ScenarioFastModeEnabled()) {
    options = snapshot::FastDemoSnapshotOptions();
  }
  options.world = args.Get("world", options.world);
  options.tweets = static_cast<size_t>(args.GetInt("tweets", static_cast<long>(options.tweets)));
  options.config.epochs = static_cast<int>(args.GetInt("epochs", options.config.epochs));
  options.preset.seed =
      static_cast<uint64_t>(args.GetInt("seed", static_cast<long>(options.preset.seed)));
  if (!args.ok()) return 2;
  if (!tools::NoUnreadFlags(args)) return Usage();

  std::fprintf(stderr, "training demo fixture (world=%s tweets=%zu epochs=%d)...\n",
               options.world.c_str(), options.tweets, options.config.epochs);
  Result<snapshot::SystemSnapshot> snap = snapshot::BuildDemoSnapshot(options);
  if (!snap.ok()) {
    std::fprintf(stderr, "make failed: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  Status status = snapshot::SaveSystemSnapshot(snap.value(), out_dir);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "snapshot saved to %s (%zu graph nodes, %zu vocab tokens)\n",
               out_dir.c_str(), snap.value().graph.num_nodes(),
               snap.value().vocabulary.size());
  return 0;
}

int RunReplay(const tools::Args& args) {
  std::string snapshot_dir = args.Get("snapshot");
  std::string script_path = args.Get("script");
  if (snapshot_dir.empty() || script_path.empty()) {
    std::fprintf(stderr, "run: --snapshot DIR and --script FILE are required\n");
    return 2;
  }
  long workers = args.GetInt("workers", 0);
  std::string golden_path = args.Get("golden");
  bool update_goldens = args.Has("update-goldens");
  bool quiet = args.Has("quiet");
  if (!args.ok() || workers < 0) return 2;
  if (!tools::NoUnreadFlags(args)) return Usage();

  Result<snapshot::SystemSnapshot> snap = snapshot::LoadSystemSnapshot(snapshot_dir);
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  std::string script_text;
  Status status = ReadFileToString(script_path, &script_text);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot read script: %s\n", status.ToString().c_str());
    return 1;
  }
  Result<snapshot::Scenario> scenario = snapshot::ParseScenario(script_text);
  if (!scenario.ok()) {
    std::fprintf(stderr, "script error: %s\n", scenario.status().ToString().c_str());
    return 1;
  }

  snapshot::ScenarioRunOptions run_options;
  run_options.num_workers = static_cast<size_t>(workers);
  if (!quiet) run_options.out = &std::cout;

  Result<snapshot::ScenarioResult> result =
      snapshot::RunScenario(snap.value(), scenario.value(), run_options);
  if (!result.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const snapshot::ScenarioResult& replay = result.value();
  std::string fingerprint = snapshot::BuildFingerprint();
  std::fprintf(stderr,
               "scenario %s: digest=%s requests=%zu cache_hits=%zu shed=%zu "
               "fingerprint=%s\n",
               scenario.value().name.c_str(), replay.digest.c_str(), replay.requests,
               replay.cache_hits, replay.shed, fingerprint.c_str());

  if (golden_path.empty()) return 0;

  if (update_goldens) {
    snapshot::GoldenRecord record;
    record.scenario = scenario.value().name;
    record.fingerprint = fingerprint;
    record.digest = replay.digest;
    record.requests = replay.requests;
    status = snapshot::WriteGoldenFile(golden_path, record);
    if (!status.ok()) {
      std::fprintf(stderr, "golden write failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "golden updated: %s\n", golden_path.c_str());
    return 0;
  }

  Result<snapshot::GoldenRecord> golden = snapshot::ReadGoldenFile(golden_path);
  if (!golden.ok()) {
    std::fprintf(stderr, "golden read failed: %s\n", golden.status().ToString().c_str());
    return 1;
  }
  if (golden.value().fingerprint != fingerprint) {
    std::fprintf(stderr,
                 "golden skipped: build fingerprint %s differs from recorded %s "
                 "(record new goldens on this toolchain to compare)\n",
                 fingerprint.c_str(), golden.value().fingerprint.c_str());
    return 0;
  }
  if (golden.value().digest != replay.digest ||
      golden.value().requests != replay.requests) {
    std::fprintf(stderr,
                 "GOLDEN MISMATCH: scenario %s replayed digest=%s requests=%zu, "
                 "golden digest=%s requests=%zu\n",
                 scenario.value().name.c_str(), replay.digest.c_str(),
                 replay.requests, golden.value().digest.c_str(),
                 golden.value().requests);
    return 1;
  }
  std::fprintf(stderr, "golden match: %s\n", golden_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  tools::Args args(argc, argv, 2);
  if (!args.ok() || !tools::SetupObservability(args)) return 2;
  int code;
  if (command == "make") {
    code = RunMake(args);
  } else if (command == "run") {
    code = RunReplay(args);
  } else {
    return Usage();
  }
  tools::FlushObservability(args);
  return code;
}

}  // namespace
}  // namespace edge

int main(int argc, char** argv) { return edge::Main(argc, argv); }
