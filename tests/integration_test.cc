/// Full-pipeline integration tests: generation -> NER -> entity2vec -> graph
/// -> EDGE -> metrics, end to end on a miniature world, plus determinism and
/// failure-injection checks that cut across modules.
///
/// All tests run off one shared *saved-snapshot* fixture: the demo artifacts
/// are built once through snapshot/fixture.h (the same builder the scenario
/// harness and `edge_scenario make` use), saved to disk, and loaded back —
/// so every test here also exercises the snapshot save/load path, and the
/// world the generators re-derive from is the one that survived
/// serialization, not an inline re-specification.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "edge/baselines/lockde.h"
#include "edge/common/check.h"
#include "edge/common/math_util.h"
#include "edge/core/edge_model.h"
#include "edge/data/generator.h"
#include "edge/eval/heatmap.h"
#include "edge/eval/metrics.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"
#include "edge/snapshot/fixture.h"
#include "edge/snapshot/system_snapshot.h"

namespace edge {
namespace {

struct SharedFixture {
  snapshot::DemoArtifacts artifacts;     ///< Live model + processed dataset.
  snapshot::SystemSnapshot loaded;       ///< The snapshot after a disk cycle.
};

snapshot::DemoSnapshotOptions FixtureOptions() {
  // The golden demo fixture (miniature NYMA world, tiny config) — shrunk
  // further under EDGE_SCENARIO_FAST for instrumented CI runs.
  return snapshot::ScenarioFastModeEnabled() ? snapshot::FastDemoSnapshotOptions()
                                             : snapshot::DemoSnapshotOptions();
}

SharedFixture& Fixture() {
  static SharedFixture* fixture = [] {
    auto* f = new SharedFixture();
    Result<snapshot::DemoArtifacts> built =
        snapshot::BuildDemoArtifacts(FixtureOptions());
    EDGE_CHECK(built.ok()) << built.status().ToString();
    f->artifacts = std::move(built).value();

    // One directory per process: ctest runs each test case as its own
    // process, several at once, and each builds this fixture.
    std::string dir = ::testing::TempDir() + "integration_snapshot_fixture_" +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    Status saved = snapshot::SaveSystemSnapshot(f->artifacts.snapshot, dir);
    EDGE_CHECK(saved.ok()) << saved.ToString();
    Result<snapshot::SystemSnapshot> loaded = snapshot::LoadSystemSnapshot(dir);
    EDGE_CHECK(loaded.ok()) << loaded.status().ToString();
    f->loaded = std::move(loaded).value();
    std::filesystem::remove_all(dir);
    return f;
  }();
  return *fixture;
}

TEST(IntegrationTest, EndToEndDeterministicAcrossRuns) {
  // The shared fixture and an independently rebuilt one must produce
  // bitwise-equal evaluation metrics: the whole pipeline (generation, NER,
  // entity2vec, GCN training, prediction) is a pure function of the options.
  SharedFixture& fixture = Fixture();
  eval::MetricResults a =
      eval::EvaluateGeolocator(fixture.artifacts.model.get(), fixture.artifacts.dataset);
  Result<snapshot::DemoArtifacts> rebuilt =
      snapshot::BuildDemoArtifacts(FixtureOptions());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  eval::MetricResults b =
      eval::EvaluateGeolocator(rebuilt.value().model.get(), rebuilt.value().dataset);
  EXPECT_DOUBLE_EQ(a.mean_km, b.mean_km);
  EXPECT_DOUBLE_EQ(a.median_km, b.median_km);
  EXPECT_DOUBLE_EQ(a.at_3km, b.at_3km);
  // And the captured snapshots agree byte for byte.
  EXPECT_EQ(rebuilt.value().snapshot.model_store,
            fixture.artifacts.snapshot.model_store);
}

TEST(IntegrationTest, SnapshotSurvivesDiskCycleConsistently) {
  // The loaded snapshot must describe the same system the live artifacts do.
  SharedFixture& fixture = Fixture();
  EXPECT_EQ(snapshot::SerializeWorldConfig(fixture.loaded.world),
            snapshot::SerializeWorldConfig(fixture.artifacts.snapshot.world));
  EXPECT_EQ(fixture.loaded.model_store,
            fixture.artifacts.snapshot.model_store);
  EXPECT_EQ(fixture.loaded.graph.num_nodes(),
            fixture.artifacts.model->entity_graph().num_nodes());
  EXPECT_EQ(fixture.loaded.graph.num_edges(),
            fixture.artifacts.model->entity_graph().num_edges());
}

TEST(IntegrationTest, NerNoiseDegradesGracefully) {
  // The generator re-derives from the *loaded* snapshot's world: the world
  // that survived serialization must drive the same pipeline the inline
  // config used to.
  SharedFixture& fixture = Fixture();
  data::TweetGenerator generator(fixture.loaded.world);
  data::Dataset raw = generator.Generate(1500);
  auto evaluate_with_miss_rate = [&](double miss_rate) {
    text::NerOptions ner_options;
    ner_options.miss_rate = miss_rate;
    data::Pipeline pipeline(generator.BuildGazetteer(), ner_options);
    data::ProcessedDataset dataset = pipeline.Process(raw);
    core::EdgeModel model(FixtureOptions().config);
    model.Fit(dataset);
    return eval::EvaluateGeolocator(&model, dataset);
  };
  eval::MetricResults clean = evaluate_with_miss_rate(0.0);
  eval::MetricResults noisy = evaluate_with_miss_rate(0.35);
  // The pipeline must survive a much weaker recognizer and still produce
  // finite, in-region errors; quality may drop but not explode.
  EXPECT_TRUE(std::isfinite(noisy.mean_km));
  EXPECT_LT(noisy.mean_km, 60.0);
  EXPECT_GT(noisy.predicted, 0u);
  EXPECT_LE(clean.median_km, noisy.median_km + 5.0);
}

TEST(IntegrationTest, EdgeBeatsLocKdeOnBridgedTweets) {
  // Observation O2's payoff, isolated: tweets that mention ONLY non-geo
  // (topic) entities still carry location through the co-occurrence graph.
  // Compare EDGE and LocKDE on exactly that slice of the fixture dataset.
  SharedFixture& fixture = Fixture();
  const data::ProcessedDataset& dataset = fixture.artifacts.dataset;

  baselines::LocKde lockde;
  lockde.Fit(dataset);

  auto slice_median = [&dataset](eval::Geolocator* method) {
    std::vector<double> errors;
    for (const data::ProcessedTweet& t : dataset.test) {
      bool any_poi_category = false;
      for (const text::Entity& e : t.entities) {
        if (e.category != text::EntityCategory::kOther &&
            e.category != text::EntityCategory::kPerson) {
          any_poi_category = true;
        }
      }
      if (any_poi_category) continue;  // Keep only topic-entity-only tweets.
      geo::LatLon p;
      if (method->PredictPoint(t, &p)) {
        errors.push_back(geo::HaversineKm(t.location, p));
      }
    }
    return errors.size() < 10 ? -1.0 : Median(errors);
  };
  double edge_median = slice_median(fixture.artifacts.model.get());
  double lockde_median = slice_median(&lockde);
  ASSERT_GT(edge_median, 0.0);
  ASSERT_GT(lockde_median, 0.0);
  // EDGE should not be worse on its home turf (allow 20% slack: this is a
  // miniature world).
  EXPECT_LT(edge_median, 1.2 * lockde_median)
      << "EDGE " << edge_median << " vs LocKDE " << lockde_median;
}

TEST(IntegrationTest, HeatmapPipelineProducesRenderableOutput) {
  data::TweetGenerator generator(Fixture().loaded.world);
  data::Dataset raw = generator.Generate(800);
  std::vector<geo::LatLon> points;
  for (const data::Tweet& t : raw.tweets) points.push_back(t.location);
  std::string map = eval::AsciiHeatmap(points, raw.region, 40, 16);
  // 16 rows, each 40 cells + 2 borders + newline.
  EXPECT_EQ(map.size(), 16u * 43u);
  EXPECT_NE(map.find('@'), std::string::npos);  // Some cell is densest.
  std::string top = eval::TopCells(points, raw.region, 40, 16, 3);
  EXPECT_FALSE(top.empty());
}

TEST(IntegrationTest, MixturePredictionCoversTrueLocation) {
  // Calibration smoke test: the true location should fall inside the 95%
  // highest-mass region reasonably often. We approximate with the component
  // Mahalanobis test at the 95% level for the nearest component.
  SharedFixture& fixture = Fixture();
  core::EdgeModel& model = *fixture.artifacts.model;

  double chi95 = -2.0 * std::log(0.05);
  size_t covered = 0;
  size_t total = 0;
  for (const data::ProcessedTweet& t : fixture.artifacts.dataset.test) {
    core::EdgePrediction prediction = model.Predict(t);
    geo::PlanePoint truth = model.projection().ToPlane(t.location);
    ++total;
    for (size_t m = 0; m < prediction.mixture.num_components(); ++m) {
      if (prediction.mixture.component(m).MahalanobisSq(truth) <= chi95) {
        ++covered;
        break;
      }
    }
  }
  ASSERT_GT(total, 100u);
  // Not a strict calibration bound, but a collapsed or wildly misplaced
  // mixture would fail this badly.
  EXPECT_GT(static_cast<double>(covered) / static_cast<double>(total), 0.6);
}

TEST(IntegrationTest, FitPublishesEpochTelemetry) {
  // The observability layer must report exactly what the model saw: the
  // edge.core.epoch_nll series appended during Fit equals loss_history(),
  // and tracing captures the phase structure of training.
  const data::ProcessedDataset& dataset = Fixture().artifacts.dataset;

  obs::Registry& registry = obs::Registry::Global();
  obs::Series* nll_series = registry.GetSeries("edge.core.epoch_nll");
  obs::Series* grad_series = registry.GetSeries("edge.core.epoch_grad_norm");
  size_t nll_before = nll_series->size();
  size_t grad_before = grad_series->size();
  obs::Histogram* epoch_seconds = registry.GetHistogram("edge.core.epoch_seconds");
  int64_t epochs_timed_before = epoch_seconds->count();

  obs::StartTracing();
  obs::ClearTrace();
  core::EdgeConfig config = FixtureOptions().config;
  config.epochs = 6;
  core::EdgeModel model(config);
  model.Fit(dataset);
  obs::StopTracing();

  // One series entry per epoch, bitwise equal to the model's own history.
  const std::vector<double>& history = model.loss_history();
  ASSERT_EQ(history.size(), 6u);
  std::vector<double> series = nll_series->values();
  ASSERT_EQ(series.size(), nll_before + history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[nll_before + i], history[i]) << "epoch " << i;
  }
  EXPECT_EQ(grad_series->size(), grad_before + history.size());
  EXPECT_EQ(epoch_seconds->count(),
            epochs_timed_before + static_cast<int64_t>(history.size()));

  // Tracing captured the training phases, nested inside the fit span.
  std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  obs::ClearTrace();
  auto count_spans = [&events](const std::string& name) {
    size_t n = 0;
    for (const obs::TraceEvent& e : events) {
      if (name == e.name) ++n;
    }
    return n;
  };
  auto find_span = [&events](const std::string& name) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& e : events) {
      if (name == e.name) return &e;
    }
    return nullptr;
  };
  const obs::TraceEvent* fit = find_span("edge.core.fit");
  const obs::TraceEvent* entity2vec = find_span("edge.core.fit.entity2vec");
  ASSERT_NE(fit, nullptr);
  ASSERT_NE(entity2vec, nullptr);
  EXPECT_EQ(count_spans("edge.core.fit.epoch"), 6u);
  EXPECT_GE(count_spans("edge.graph.gcn_forward"), 6u);
  EXPECT_GE(count_spans("edge.embedding.entity2vec.train"), 1u);
  // The entity2vec phase nests inside the fit span.
  EXPECT_GE(entity2vec->start_us, fit->start_us);
  EXPECT_LE(entity2vec->start_us + entity2vec->duration_us,
            fit->start_us + fit->duration_us);
  EXPECT_EQ(entity2vec->depth, fit->depth + 1);
}

}  // namespace
}  // namespace edge
