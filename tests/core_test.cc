#include "edge/core/edge_model.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include <gtest/gtest.h>

#include "edge/common/check.h"
#include "edge/common/file_util.h"
#include "edge/common/hash.h"
#include "edge/common/math_util.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/worlds.h"
#include "edge/eval/metrics.h"
#include "edge/snapshot/scenario.h"

namespace edge::core {
namespace {

data::ProcessedDataset SmallProcessedDataset(size_t tweets = 2500) {
  data::WorldPresetOptions world_options;
  world_options.num_fine_pois = 25;
  world_options.num_coarse_areas = 3;
  world_options.num_chains = 3;
  world_options.num_topics = 12;
  data::TweetGenerator generator(data::MakeNymaWorld(world_options));
  data::Dataset ds = generator.Generate(tweets);
  data::Pipeline pipeline(generator.BuildGazetteer());
  return pipeline.Process(ds);
}

EdgeConfig FastConfig() {
  EdgeConfig config;
  config.auto_dim = false;
  config.embedding_dim = 32;
  config.gcn_hidden = {32, 32};
  config.epochs = 60;
  config.batch_size = 128;
  return config;
}

TEST(EdgeConfigTest, ValidateCatchesBadValues) {
  EdgeConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_components = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = EdgeConfig();
  config.rho_max = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = EdgeConfig();
  config.gcn_hidden = {0};
  EXPECT_FALSE(config.Validate().ok());
}

TEST(EdgeConfigTest, AblationFactories) {
  EXPECT_TRUE(EdgeConfig::NoGcn().gcn_hidden.empty());
  EXPECT_FALSE(EdgeConfig::SumAggregation().use_attention);
  EXPECT_EQ(EdgeConfig::NoMixture().num_components, 1u);
  EXPECT_EQ(EdgeConfig::NoGcn().display_name, "NoGCN");
}

class EdgeModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::ProcessedDataset(SmallProcessedDataset());
    model_ = new EdgeModel(FastConfig());
    model_->Fit(*dataset_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    model_ = nullptr;
    dataset_ = nullptr;
  }

  static data::ProcessedDataset* dataset_;
  static EdgeModel* model_;
};

data::ProcessedDataset* EdgeModelTest::dataset_ = nullptr;
EdgeModel* EdgeModelTest::model_ = nullptr;

TEST_F(EdgeModelTest, TrainingLossDecreases) {
  const std::vector<double>& history = model_->loss_history();
  ASSERT_GE(history.size(), 2u);
  EXPECT_LT(history.back(), history.front() - 0.1)
      << "NLL should drop materially over training";
  for (double loss : history) EXPECT_TRUE(std::isfinite(loss));
}

TEST_F(EdgeModelTest, PredictionsAreValidMixtures) {
  size_t checked = 0;
  for (const data::ProcessedTweet& tweet : dataset_->test) {
    if (checked >= 25) break;
    EdgePrediction prediction = model_->Predict(tweet);
    EXPECT_FALSE(prediction.used_fallback);
    EXPECT_EQ(prediction.mixture.num_components(), model_->config().num_components);
    double weight_sum = 0.0;
    for (size_t m = 0; m < prediction.mixture.num_components(); ++m) {
      weight_sum += prediction.mixture.weight(m);
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-9);
    // Attention weights over the tweet's known entities sum to 1.
    double attention_sum = 0.0;
    for (const EntityAttention& a : prediction.attention) attention_sum += a.weight;
    EXPECT_NEAR(attention_sum, 1.0, 1e-9);
    EXPECT_TRUE(std::isfinite(prediction.point.lat));
    EXPECT_TRUE(std::isfinite(prediction.point.lon));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(EdgeModelTest, BeatsGlobalPriorBaseline) {
  // A model that ignores text entirely answers the training centroid; EDGE
  // must do materially better on median error.
  geo::PlanePoint centroid{0, 0};
  const geo::LocalProjection& proj = model_->projection();
  for (const data::ProcessedTweet& t : dataset_->train) {
    geo::PlanePoint p = proj.ToPlane(t.location);
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(dataset_->train.size());
  centroid.y /= static_cast<double>(dataset_->train.size());
  geo::LatLon centroid_ll = proj.ToLatLon(centroid);

  std::vector<double> edge_err;
  std::vector<double> prior_err;
  for (const data::ProcessedTweet& tweet : dataset_->test) {
    geo::LatLon p;
    ASSERT_TRUE(model_->PredictPoint(tweet, &p));
    edge_err.push_back(geo::HaversineKm(tweet.location, p));
    prior_err.push_back(geo::HaversineKm(tweet.location, centroid_ll));
  }
  double edge_median = Median(edge_err);
  double prior_median = Median(prior_err);
  EXPECT_LT(edge_median, 0.8 * prior_median)
      << "EDGE median " << edge_median << " vs prior " << prior_median;
}

TEST_F(EdgeModelTest, AttentionFavoursFineGrainedEntities) {
  // §III-B: attention should weight fine-grained geo-indicative entities
  // ("william street") above coarse-grained ones ("brooklyn"). Measure each
  // entity's spatial spread over the training tweets that mention it, then
  // compare the average attention mass of tight vs wide entities within
  // mixed tweets.
  std::unordered_map<std::string, std::vector<geo::PlanePoint>> occurrences;
  const geo::LocalProjection& proj = model_->projection();
  for (const data::ProcessedTweet& t : dataset_->train) {
    geo::PlanePoint p = proj.ToPlane(t.location);
    for (const text::Entity& e : t.entities) occurrences[e.name].push_back(p);
  }
  auto spread_km = [&occurrences](const std::string& name) {
    const auto& points = occurrences.at(name);
    double mx = 0.0, my = 0.0;
    for (const auto& p : points) {
      mx += p.x;
      my += p.y;
    }
    mx /= points.size();
    my /= points.size();
    double ss = 0.0;
    for (const auto& p : points) {
      ss += (p.x - mx) * (p.x - mx) + (p.y - my) * (p.y - my);
    }
    return std::sqrt(ss / points.size());
  };

  // Mechanism test: attention must be input-dependent (not uniform) and
  // well-formed. Whether it statistically favours tight entities is a
  // *measured* claim reported by the Table IV / Fig. 6 benches (at this
  // miniature scale it need not emerge), so it is not asserted here.
  size_t non_uniform = 0;
  size_t multi = 0;
  for (const data::ProcessedTweet& tweet : dataset_->test) {
    EdgePrediction prediction = model_->Predict(tweet);
    size_t k_count = prediction.attention.size();
    if (k_count < 2) continue;
    ++multi;
    double uniform = 1.0 / static_cast<double>(k_count);
    for (const EntityAttention& a : prediction.attention) {
      EXPECT_GE(a.weight, 0.0);
      EXPECT_LE(a.weight, 1.0);
      EXPECT_GT(spread_km(a.entity) + 1.0, 0.0);  // Spread is well-defined.
      if (std::fabs(a.weight - uniform) > 0.1 * uniform) ++non_uniform;
    }
  }
  ASSERT_GT(multi, 10u);
  EXPECT_GT(non_uniform, 0u) << "attention collapsed to exactly uniform";
}

/// `model` as fp64 edge-model.v1 bytes.
std::string StoreBytes(const EdgeModel& model) {
  std::string bytes;
  Status status = SerializeModelStore(model, EmbedPrecision::kFp64, &bytes);
  EDGE_CHECK(status.ok()) << status.ToString();
  return bytes;
}

/// Loads `bytes` the way the tools do: from a file, through LoadInferenceAuto.
Result<std::unique_ptr<EdgeModel>> LoadBytes(const std::string& bytes,
                                             StoreVerify verify = StoreVerify::kFull) {
  std::string path = ::testing::TempDir() + "core_test_model_" +
                     std::to_string(::getpid()) + ".edge";
  Status status = WriteFileAtomic(path, bytes);
  EDGE_CHECK(status.ok()) << status.ToString();
  Result<std::unique_ptr<EdgeModel>> model = LoadInferenceAuto(path, verify);
  std::remove(path.c_str());
  return model;
}

TEST_F(EdgeModelTest, SaveLoadRoundTripPredictsIdentically) {
  auto loaded = LoadBytes(StoreBytes(*model_));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t i = 0; i < std::min<size_t>(10, dataset_->test.size()); ++i) {
    EdgePrediction original = model_->Predict(dataset_->test[i]);
    EdgePrediction restored = loaded.value()->Predict(dataset_->test[i]);
    // fp64 stores the raw IEEE bytes: the restored model is exact.
    EXPECT_EQ(original.point.lat, restored.point.lat);
    EXPECT_EQ(original.point.lon, restored.point.lon);
    ASSERT_EQ(original.attention.size(), restored.attention.size());
    for (size_t k = 0; k < original.attention.size(); ++k) {
      EXPECT_EQ(original.attention[k].entity, restored.attention[k].entity);
      EXPECT_EQ(original.attention[k].weight, restored.attention[k].weight);
    }
  }
}

TEST_F(EdgeModelTest, LoadRejectsGarbage) {
  EXPECT_FALSE(LoadBytes("not a model").ok());
  EXPECT_FALSE(LoadBytes(std::string(4096, 'x'), StoreVerify::kFast).ok());
}

TEST_F(EdgeModelTest, LoadRejectsTruncatedStreams) {
  // A checkpoint cut off mid-write (full disk, killed trainer) must be
  // refused at either verify tier, never served.
  std::string full = StoreBytes(*model_);
  for (size_t cut : {full.size() / 2, full.size() / 4, size_t{40}}) {
    for (StoreVerify verify : {StoreVerify::kFull, StoreVerify::kFast}) {
      EXPECT_FALSE(LoadBytes(full.substr(0, cut), verify).ok())
          << "accepted a checkpoint truncated to " << cut << " of " << full.size()
          << " bytes";
    }
  }
}

TEST_F(EdgeModelTest, LoadRejectsWrongMagic) {
  std::string bytes = StoreBytes(*model_);
  bytes[7] = '0';  // "EDGEMDL0"
  auto result = LoadBytes(bytes, StoreVerify::kFast);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("magic"), std::string::npos);
}

TEST_F(EdgeModelTest, LoadRejectsDimensionMismatch) {
  // Inflate the header's node count (bytes 40..47) and re-seal the header
  // checksum: the vocabulary and embedding sections no longer match it and
  // must be rejected, not read past.
  std::string bytes = StoreBytes(*model_);
  uint64_t num_nodes = 0;
  std::memcpy(&num_nodes, bytes.data() + 40, 8);
  ASSERT_EQ(num_nodes, model_->num_entities());
  ++num_nodes;
  std::memcpy(bytes.data() + 40, &num_nodes, 8);
  uint64_t checksum = Fnv1a64Bytes(bytes.data(), 120);
  std::memcpy(bytes.data() + 120, &checksum, 8);
  EXPECT_FALSE(LoadBytes(bytes, StoreVerify::kFast).ok());
  EXPECT_FALSE(LoadBytes(bytes, StoreVerify::kFull).ok());
}

TEST_F(EdgeModelTest, LoadRejectsCorruptComponentCount) {
  // The config section is the first section (offset 128): text whose second
  // line starts with the mixture component count. A zero there used to be
  // able to reach the EdgeModel constructor's config abort; kFast does not
  // checksum the config, so the count gate itself must refuse it.
  std::string bytes = StoreBytes(*model_);
  size_t count_at = bytes.find('\n', 128) + 1;
  ASSERT_EQ(bytes[count_at], static_cast<char>('0' + model_->config().num_components));
  bytes[count_at] = '0';
  auto result = LoadBytes(bytes, StoreVerify::kFast);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("component count"), std::string::npos)
      << result.status().ToString();
}

TEST_F(EdgeModelTest, RoundTripPredictPointsBitwiseAcrossThreadBudgets) {
  // The serving chain (save -> load -> batched predict at any thread budget)
  // must answer bit-for-bit what the trained model answers serially.
  auto loaded = LoadBytes(StoreBytes(*model_));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  size_t n = std::min<size_t>(200, dataset_->test.size());
  std::vector<data::ProcessedTweet> tweets(dataset_->test.begin(),
                                           dataset_->test.begin() + n);
  std::vector<geo::LatLon> reference(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = model_->Predict(tweets[i]).point;
  }
  for (int budget : {1, 2, 4}) {
    loaded.value()->set_num_threads(budget);
    std::vector<geo::LatLon> points;
    std::vector<uint8_t> predicted;
    loaded.value()->PredictPoints(tweets, &points, &predicted);
    ASSERT_EQ(points.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(points[i].lat, reference[i].lat) << "budget " << budget << " tweet " << i;
      EXPECT_EQ(points[i].lon, reference[i].lon) << "budget " << budget << " tweet " << i;
    }
  }
}

TEST_F(EdgeModelTest, FallbackForUnknownEntities) {
  data::ProcessedTweet tweet;
  tweet.text = "nothing known here";
  tweet.entities = {{"completely_unknown_entity", text::EntityCategory::kOther}};
  EdgePrediction prediction = model_->Predict(tweet);
  EXPECT_TRUE(prediction.used_fallback);
  EXPECT_EQ(prediction.mixture.num_components(), 1u);
  EXPECT_TRUE(dataset_->region.Contains(prediction.point));
}

TEST(EdgeAblationTest, VariantsTrainAndPredict) {
  data::ProcessedDataset dataset = SmallProcessedDataset(800);
  for (EdgeConfig config :
       {EdgeConfig::NoGcn(), EdgeConfig::SumAggregation(), EdgeConfig::NoMixture()}) {
    config.auto_dim = false;
    config.embedding_dim = 16;
    if (!config.gcn_hidden.empty()) config.gcn_hidden = {16};
    config.epochs = 3;
    config.entity2vec.epochs = 1;
    EdgeModel model(config);
    model.Fit(dataset);
    eval::MetricResults results = eval::EvaluateGeolocator(&model, dataset);
    EXPECT_EQ(results.predicted, dataset.test.size());
    EXPECT_TRUE(std::isfinite(results.mean_km));
    EXPECT_LT(results.mean_km, 60.0) << config.display_name;
  }
}

/// One configuration pinned by FitPinTest: how it differs from the small
/// base model, and the loss history it must reproduce bit for bit.
struct FitPin {
  const char* name;
  EdgeConfig (*make)();
  std::vector<double> loss_history;
};

void PrintTo(const FitPin& pin, std::ostream* os) { *os << pin.name; }

/// A 3-epoch Fit on a small NYMA world, pinned bit for bit. The histories
/// come from the reference formulation: a per-tweet attention tape over a
/// GCN evaluated on every node and entity2vec pairs dotted one target at a
/// time. The golden scenarios train only the default 2-layer attention
/// model, so these pins guard the other configurations. Like the golden
/// digests, they hold only under the build fingerprint they were recorded
/// with (compiler and libm); another toolchain skips them.
class FitPinTest : public ::testing::TestWithParam<FitPin> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::ProcessedDataset(SmallProcessedDataset(800));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static data::ProcessedDataset* dataset_;
};

data::ProcessedDataset* FitPinTest::dataset_ = nullptr;

EdgeConfig PinBase(EdgeConfig config) {
  config.auto_dim = false;
  config.embedding_dim = 16;
  for (size_t& width : config.gcn_hidden) width = 16;
  config.epochs = 3;
  config.entity2vec.epochs = 1;
  config.batch_size = 64;
  return config;
}

constexpr const char* kPinFingerprint = "fdc3698cf354853f";

TEST_P(FitPinTest, LossHistoryIsBitwisePinned) {
  if (snapshot::BuildFingerprint() != kPinFingerprint) {
    GTEST_SKIP() << "pins recorded under fingerprint " << kPinFingerprint
                 << ", this build is " << snapshot::BuildFingerprint();
  }
  EdgeModel model(GetParam().make());
  model.Fit(*dataset_);
  const std::vector<double>& expected = GetParam().loss_history;
  ASSERT_EQ(model.loss_history().size(), expected.size());
  for (size_t epoch = 0; epoch < expected.size(); ++epoch) {
    EXPECT_EQ(model.loss_history()[epoch], expected[epoch])
        << std::hexfloat << "epoch " << epoch << ": " << model.loss_history()[epoch]
        << " vs pinned " << expected[epoch];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FitPinTest,
    ::testing::Values(
        FitPin{"Edge", [] { return PinBase(EdgeConfig()); },
               {0x1.161b24c5509bp+4, 0x1.b3c16b58e6d1cp+3, 0x1.63b238573d032p+3}},
        FitPin{"NoGcn", [] { return PinBase(EdgeConfig::NoGcn()); },
               {0x1.34bf35a1877ap+3, 0x1.f452be3a28eb4p+2, 0x1.b862a122b77d1p+2}},
        FitPin{"Sum", [] { return PinBase(EdgeConfig::SumAggregation()); },
               {0x1.14efecb3ccae3p+4, 0x1.ab6f009d0cb09p+3, 0x1.57d88160a029bp+3}},
        FitPin{"NoMixture", [] { return PinBase(EdgeConfig::NoMixture()); },
               {0x1.67d2498952b43p+5, 0x1.072aae32ca827p+5, 0x1.8fbfa4ddc66cp+4}},
        FitPin{"IdentityFeatures",
               [] {
                 EdgeConfig config = PinBase(EdgeConfig());
                 config.feature_mode = EdgeConfig::FeatureMode::kIdentity;
                 return config;
               },
               {0x1.7ad606dd751a6p+3, 0x1.939dcf9d65a33p+2, 0x1.f37c6a20dd6a2p+1}},
        FitPin{"OneLayer",
               [] {
                 EdgeConfig config;
                 config.gcn_hidden = {16};
                 return PinBase(config);
               },
               {0x1.dcf9704a5cab3p+2, 0x1.8dc53b9d64042p+2, 0x1.60fb78e631963p+2}},
        FitPin{"ThreeLayer",
               [] {
                 EdgeConfig config;
                 config.gcn_hidden = {16, 16, 16};
                 return PinBase(config);
               },
               {0x1.52d1ab482d304p+3, 0x1.0638c1607f3e4p+3, 0x1.96c541f560473p+2}}),
    [](const ::testing::TestParamInfo<FitPin>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace edge::core
