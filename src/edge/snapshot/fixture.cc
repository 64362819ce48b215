#include "edge/snapshot/fixture.h"

#include <cstdlib>
#include <utility>

#include "edge/data/generator.h"

namespace edge::snapshot {

DemoSnapshotOptions::DemoSnapshotOptions() {
  // Mirrors the integration tests' TinyWorld/TinyConfig scale.
  preset.num_fine_pois = 30;
  preset.num_coarse_areas = 4;
  preset.num_chains = 4;
  preset.num_topics = 16;

  config.auto_dim = false;
  config.embedding_dim = 32;
  config.gcn_hidden = {32, 32};
  config.epochs = 40;
  config.entity2vec.epochs = 25;

  serve.max_batch = 8;
  serve.num_workers = 2;
  // Small on purpose: a 100x spike event must overflow it so shedding shows
  // up in the canonical stream.
  serve.queue_capacity = 64;
  serve.cache_capacity = 256;
  serve.default_deadline_ms = 0.0;
  serve.predict_threads = 1;
}

DemoSnapshotOptions FastDemoSnapshotOptions() {
  DemoSnapshotOptions options;
  options.tweets = 700;
  options.config.epochs = 8;
  options.config.entity2vec.epochs = 6;
  return options;
}

bool ScenarioFastModeEnabled() {
  const char* value = std::getenv("EDGE_SCENARIO_FAST");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

Result<data::WorldConfig> MakeWorldByName(const std::string& name,
                                          const data::WorldPresetOptions& preset) {
  if (name == "nyma") return data::MakeNymaWorld(preset);
  if (name == "ny2020") return data::MakeNy2020World(preset);
  if (name == "lama") return data::MakeLamaWorld(preset);
  return Status::InvalidArgument("unknown world preset: " + name +
                                 " (expected nyma, ny2020 or lama)");
}

Result<DemoArtifacts> BuildDemoArtifacts(const DemoSnapshotOptions& options) {
  Result<data::WorldConfig> world = MakeWorldByName(options.world, options.preset);
  if (!world.ok()) return world.status();

  DemoArtifacts artifacts;
  data::TweetGenerator generator(world.value());
  data::Dataset raw = generator.Generate(options.tweets);
  data::Pipeline pipeline(generator.BuildGazetteer());
  artifacts.dataset = pipeline.Process(raw);

  artifacts.model = std::make_unique<core::EdgeModel>(options.config);
  artifacts.model->Fit(artifacts.dataset);

  Result<SystemSnapshot> snapshot = CaptureSystemSnapshot(
      *artifacts.model, world.value(), artifacts.dataset, options.serve);
  if (!snapshot.ok()) return snapshot.status();
  artifacts.snapshot = std::move(snapshot).value();
  return artifacts;
}

Result<SystemSnapshot> BuildDemoSnapshot(const DemoSnapshotOptions& options) {
  Result<DemoArtifacts> artifacts = BuildDemoArtifacts(options);
  if (!artifacts.ok()) return artifacts.status();
  return std::move(artifacts).value().snapshot;
}

}  // namespace edge::snapshot
