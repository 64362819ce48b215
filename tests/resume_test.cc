#include "edge/core/train_checkpoint.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/check.h"
#include "edge/core/edge_model.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/fault/fault.h"
#include "edge/obs/metrics.h"

/// Crash-safe training drills (DESIGN.md §12): kill-and-resume bitwise
/// parity, divergence rollback, and torn-checkpoint rejection.

namespace edge::core {
namespace {

TrainState MakeSyntheticState() {
  TrainState state;
  state.fingerprint = "v1|test|seed=1|epochs=3";
  state.next_epoch = 3;
  state.lr_scale = 0.5;
  state.rollbacks_used = 1;
  state.last_good_grad_norm = 1.25;
  state.rng.state = 0x123456789abcdef0ULL;
  state.rng.inc = 0xdeadbeef1234ULL;
  state.rng.has_spare_normal = true;
  state.rng.spare_normal = -0.70710678118654757;
  state.loss_history = {3.25, 2.5 + 1e-13, 2.0};
  nn::Matrix a(2, 3);
  nn::Matrix b(1, 4);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      a.At(r, c) = 0.1 * static_cast<double>(r) + 3.14159 * static_cast<double>(c + 1);
    }
  }
  for (size_t c = 0; c < b.cols(); ++c) {
    b.At(0, c) = -1.0 / static_cast<double>(c + 3);
  }
  state.params = {a, b};
  state.adam.step_count = 7;
  nn::Matrix ma = a;
  nn::Matrix mb = b;
  for (size_t r = 0; r < ma.rows(); ++r) {
    for (size_t c = 0; c < ma.cols(); ++c) ma.At(r, c) *= 1e-3;
  }
  for (size_t c = 0; c < mb.cols(); ++c) mb.At(0, c) *= -2e-5;
  state.adam.m = {ma, mb};
  state.adam.v = {a, b};
  return state;
}

void ExpectMatrixBitwiseEqual(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(a.At(r, c), b.At(r, c));
    }
  }
}

void ExpectStateBitwiseEqual(const TrainState& a, const TrainState& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.next_epoch, b.next_epoch);
  EXPECT_EQ(a.lr_scale, b.lr_scale);
  EXPECT_EQ(a.rollbacks_used, b.rollbacks_used);
  EXPECT_EQ(a.last_good_grad_norm, b.last_good_grad_norm);
  EXPECT_EQ(a.rng.state, b.rng.state);
  EXPECT_EQ(a.rng.inc, b.rng.inc);
  EXPECT_EQ(a.rng.has_spare_normal, b.rng.has_spare_normal);
  EXPECT_EQ(a.rng.spare_normal, b.rng.spare_normal);
  ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
  for (size_t i = 0; i < a.loss_history.size(); ++i) {
    EXPECT_EQ(a.loss_history[i], b.loss_history[i]);
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (size_t i = 0; i < a.params.size(); ++i) {
    ExpectMatrixBitwiseEqual(a.params[i], b.params[i]);
  }
  EXPECT_EQ(a.adam.step_count, b.adam.step_count);
  ASSERT_EQ(a.adam.m.size(), b.adam.m.size());
  for (size_t i = 0; i < a.adam.m.size(); ++i) {
    ExpectMatrixBitwiseEqual(a.adam.m[i], b.adam.m[i]);
    ExpectMatrixBitwiseEqual(a.adam.v[i], b.adam.v[i]);
  }
}

TEST(TrainCheckpointTest, SerializeParseRoundTripsBitwise) {
  TrainState state = MakeSyntheticState();
  std::string serialized = SerializeTrainState(state);
  Result<TrainState> parsed = ParseTrainState(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectStateBitwiseEqual(state, parsed.value());
}

// The torn-write satellite: EVERY strict truncation prefix of a valid
// checkpoint must come back as a Status error — no prefix may parse, and
// none may crash.
TEST(TrainCheckpointTest, EveryTruncationPrefixIsRejected) {
  std::string serialized = SerializeTrainState(MakeSyntheticState());
  ASSERT_GT(serialized.size(), 100u);
  for (size_t length = 0; length < serialized.size(); ++length) {
    Result<TrainState> parsed = ParseTrainState(serialized.substr(0, length));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << length << " bytes parsed";
  }
}

TEST(TrainCheckpointTest, BitFlipsAreRejected) {
  std::string serialized = SerializeTrainState(MakeSyntheticState());
  // Flip a byte at several positions spread over the payload (skipping the
  // final newline would-be-harmless cases by staying strictly inside).
  for (size_t position : {serialized.size() / 7, serialized.size() / 3,
                          serialized.size() / 2, serialized.size() - 20}) {
    std::string corrupt = serialized;
    corrupt[position] ^= 0x01;
    Result<TrainState> parsed = ParseTrainState(corrupt);
    EXPECT_FALSE(parsed.ok()) << "flip at " << position << " parsed";
  }
  EXPECT_FALSE(ParseTrainState("").ok());
  EXPECT_FALSE(ParseTrainState("EDGE-TRAINSTATE v2\n").ok());
}

TEST(TrainCheckpointTest, SaveSurvivesInjectedTornWriteByReadback) {
  fault::Disarm();
  std::string dir = ::testing::TempDir() + "/resume_torn";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/train_state.edge";
  TrainState state = MakeSyntheticState();
  // The first write is torn (but reported durable); SaveTrainStateAtomic's
  // read-back verification must catch it and retry to a clean write.
  ASSERT_TRUE(fault::Configure("io.checkpoint.write=short_write,frac=0.5,times=1"));
  Status status = SaveTrainStateAtomic(path, state);
  fault::Disarm();
  ASSERT_TRUE(status.ok()) << status.ToString();
  Result<TrainState> loaded = LoadTrainState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStateBitwiseEqual(state, loaded.value());
}

TEST(TrainCheckpointTest, LoadRetriesTransientReadFaults) {
  fault::Disarm();
  std::string dir = ::testing::TempDir() + "/resume_retry";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/train_state.edge";
  TrainState state = MakeSyntheticState();
  ASSERT_TRUE(SaveTrainStateAtomic(path, state).ok());
  ASSERT_TRUE(fault::Configure("io.checkpoint.read=error,times=2"));
  Result<TrainState> loaded = LoadTrainState(path);
  fault::Disarm();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStateBitwiseEqual(state, loaded.value());
}

TEST(TrainCheckpointTest, FingerprintSeparatesConfigsAndDatasets) {
  EdgeConfig config;
  std::string base = TrainFingerprint(config, 100, 40);
  EXPECT_EQ(base, TrainFingerprint(config, 100, 40));  // Deterministic.
  EdgeConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_NE(base, TrainFingerprint(reseeded, 100, 40));
  EdgeConfig more_epochs = config;
  more_epochs.epochs += 1;
  EXPECT_NE(base, TrainFingerprint(more_epochs, 100, 40));
  // entity2vec makes the GCN's input features, and Adam's betas shape every
  // step: either changes the training stream.
  EdgeConfig more_e2v_epochs = config;
  more_e2v_epochs.entity2vec.epochs += 1;
  EXPECT_NE(base, TrainFingerprint(more_e2v_epochs, 100, 40));
  EdgeConfig wider_window = config;
  wider_window.entity2vec.window += 1;
  EXPECT_NE(base, TrainFingerprint(wider_window, 100, 40));
  EdgeConfig other_beta2 = config;
  other_beta2.adam.beta2 = 0.99;
  EXPECT_NE(base, TrainFingerprint(other_beta2, 100, 40));
  EXPECT_NE(base, TrainFingerprint(config, 101, 40));
  EXPECT_NE(base, TrainFingerprint(config, 100, 41));
  // Recovery knobs do NOT change the fingerprint: an interrupted run and its
  // resume (different max_epochs_per_run) must share a training stream.
  EdgeConfig recovering = config;
  recovering.recovery.checkpoint_dir = "/tmp/somewhere";
  recovering.recovery.max_epochs_per_run = 2;
  EXPECT_EQ(base, TrainFingerprint(recovering, 100, 40));
}

/// Trains one small shared dataset; each test builds fresh models over it.
class FitRecoveryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldPresetOptions world_options;
    world_options.num_fine_pois = 8;
    world_options.num_coarse_areas = 2;
    world_options.num_chains = 1;
    world_options.num_topics = 4;
    data::TweetGenerator generator(data::MakeNymaWorld(world_options));
    data::Dataset dataset = generator.Generate(300);
    text::Gazetteer gazetteer = generator.BuildGazetteer();
    data::Pipeline pipeline(gazetteer);
    processed_ = new data::ProcessedDataset(pipeline.Process(dataset));
    EDGE_CHECK(!processed_->train.empty());
    EDGE_CHECK(!processed_->test.empty());
  }

  static void TearDownTestSuite() {
    delete processed_;
    processed_ = nullptr;
  }

  void SetUp() override { fault::Disarm(); }
  void TearDown() override { fault::Disarm(); }

  static EdgeConfig SmallConfig(int num_threads) {
    EdgeConfig config;
    config.auto_dim = false;
    config.embedding_dim = 8;
    config.gcn_hidden = {8};
    config.epochs = 6;
    config.batch_size = 64;
    config.num_threads = num_threads;
    config.entity2vec.epochs = 1;
    return config;
  }

  static std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/fit_recovery_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  static data::ProcessedDataset* processed_;
};

data::ProcessedDataset* FitRecoveryTest::processed_ = nullptr;

// The tentpole acceptance drill: a run interrupted every k epochs and
// resumed from its checkpoint reproduces the uninterrupted run's
// loss_history BITWISE — at a serial and a parallel thread budget.
TEST_F(FitRecoveryTest, KillAndResumeReproducesLossHistoryBitwise) {
  for (int num_threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    EdgeConfig config = SmallConfig(num_threads);

    EdgeModel uninterrupted(config);
    uninterrupted.Fit(*processed_);
    ASSERT_EQ(uninterrupted.loss_history().size(), 6u);

    // Simulated crash-loop: each "process" trains at most 2 epochs, then
    // dies; the next one resumes from the checkpoint.
    EdgeConfig chunked = config;
    chunked.recovery.checkpoint_dir =
        FreshDir("resume_t" + std::to_string(num_threads));
    chunked.recovery.max_epochs_per_run = 2;
    std::vector<double> final_history;
    EdgePrediction resumed_prediction;
    for (int run = 0; run < 3; ++run) {
      EdgeModel attempt(chunked);
      attempt.Fit(*processed_);
      final_history = attempt.loss_history();
      if (run == 2) resumed_prediction = attempt.Predict(processed_->test[0]);
    }

    ASSERT_EQ(final_history.size(), uninterrupted.loss_history().size());
    for (size_t i = 0; i < final_history.size(); ++i) {
      EXPECT_EQ(final_history[i], uninterrupted.loss_history()[i])
          << "epoch " << i << " loss diverged across kill/resume";
    }
    // The resumed model is the same model, not just the same loss curve.
    EdgePrediction want = uninterrupted.Predict(processed_->test[0]);
    EXPECT_EQ(resumed_prediction.point.lat, want.point.lat);
    EXPECT_EQ(resumed_prediction.point.lon, want.point.lon);
  }
}

// The divergence drill: a forced-NaN epoch rolls back, halves the learning
// rate, and the run still completes with a finite model and the incident
// visible in the metrics snapshot.
TEST_F(FitRecoveryTest, DivergenceRollsBackHalvesLrAndCompletes) {
  obs::Registry& registry = obs::Registry::Global();
  int64_t rollbacks_before = registry.GetCounter("edge.core.rollbacks")->value();

  ASSERT_TRUE(fault::Configure("train.diverge=error,times=1"));
  EdgeConfig config = SmallConfig(1);
  config.recovery.max_rollbacks = 3;
  EdgeModel model(config);
  model.Fit(*processed_);
  fault::Disarm();

  ASSERT_EQ(model.loss_history().size(), 6u);
  for (double loss : model.loss_history()) EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(registry.GetCounter("edge.core.rollbacks")->value(),
            rollbacks_before + 1);
  EXPECT_DOUBLE_EQ(registry.GetGauge("edge.core.lr_scale")->value(), 0.5);
  // The incident is in the same snapshot a --metrics-out run would write.
  std::string snapshot = registry.ToJson();
  EXPECT_NE(snapshot.find("edge.core.rollbacks"), std::string::npos);
  EXPECT_NE(snapshot.find("edge.core.lr_scale"), std::string::npos);
  // A diverged-and-recovered model still predicts finite coordinates.
  EdgePrediction prediction = model.Predict(processed_->test[0]);
  EXPECT_TRUE(std::isfinite(prediction.point.lat));
  EXPECT_TRUE(std::isfinite(prediction.point.lon));
}

// Budget exhaustion keeps the last good state and returns — never aborts.
TEST_F(FitRecoveryTest, RollbackBudgetExhaustionKeepsLastGoodState) {
  obs::Registry& registry = obs::Registry::Global();
  int64_t giveups_before =
      registry.GetCounter("edge.core.divergence_giveups")->value();

  ASSERT_TRUE(fault::Configure("train.diverge=error"));  // Every epoch NaN.
  EdgeConfig config = SmallConfig(1);
  config.recovery.max_rollbacks = 2;
  EdgeModel model(config);
  model.Fit(*processed_);
  fault::Disarm();

  EXPECT_EQ(registry.GetCounter("edge.core.divergence_giveups")->value(),
            giveups_before + 1);
  // Every attempted epoch diverged, so the kept state is the initial one:
  // no loss history, but a finite, predict-capable model.
  EXPECT_TRUE(model.loss_history().empty());
  EdgePrediction prediction = model.Predict(processed_->test[0]);
  EXPECT_TRUE(std::isfinite(prediction.point.lat));
  EXPECT_TRUE(std::isfinite(prediction.point.lon));
}

TEST_F(FitRecoveryTest, FingerprintMismatchTrainsFromScratch) {
  obs::Registry& registry = obs::Registry::Global();
  // A different seed is a different training stream, and so is a different
  // entity2vec schedule: the first run's checkpoint must be ignored, not
  // resumed into the wrong run.
  EdgeConfig reseeded = SmallConfig(1);
  reseeded.seed += 1;
  EdgeConfig more_e2v_epochs = SmallConfig(1);
  more_e2v_epochs.entity2vec.epochs = 3;
  for (EdgeConfig second : {reseeded, more_e2v_epochs}) {
    SCOPED_TRACE("seed " + std::to_string(second.seed) + ", entity2vec epochs " +
                 std::to_string(second.entity2vec.epochs));
    std::string dir = FreshDir("fingerprint_mismatch");
    EdgeConfig first = SmallConfig(1);
    first.recovery.checkpoint_dir = dir;
    first.recovery.max_epochs_per_run = 2;
    EdgeModel partial(first);
    partial.Fit(*processed_);
    ASSERT_EQ(partial.loss_history().size(), 2u);

    EdgeModel clean(second);
    clean.Fit(*processed_);
    int64_t resumes_before = registry.GetCounter("edge.core.resumes")->value();
    second.recovery.checkpoint_dir = dir;
    EdgeModel fresh(second);
    fresh.Fit(*processed_);
    EXPECT_EQ(registry.GetCounter("edge.core.resumes")->value(), resumes_before);
    EXPECT_EQ(fresh.loss_history(), clean.loss_history());  // Full run.
  }
}

TEST_F(FitRecoveryTest, CorruptCheckpointFallsBackToFreshRun) {
  std::string dir = FreshDir("corrupt_checkpoint");
  EdgeConfig config = SmallConfig(1);
  config.recovery.checkpoint_dir = dir;
  std::ofstream(dir + "/train_state.edge") << "EDGE-TRAINSTATE v1\ngarbage\n";
  EdgeModel model(config);
  model.Fit(*processed_);  // Must not abort on the bad checkpoint.
  EXPECT_EQ(model.loss_history().size(), 6u);
}

TEST_F(FitRecoveryTest, StopFlagFinishesEpochCheckpointsAndReturns) {
  std::string dir = FreshDir("stop_flag");
  std::atomic<bool> stop{true};  // Raised before training even starts.
  EdgeConfig config = SmallConfig(1);
  config.recovery.checkpoint_dir = dir;
  config.recovery.stop_flag = &stop;
  EdgeModel model(config);
  model.Fit(*processed_);
  // Exactly one epoch ran (the flag is only checked at epoch boundaries),
  // and its state was checkpointed for the next run to resume.
  EXPECT_EQ(model.loss_history().size(), 1u);
  Result<TrainState> saved = LoadTrainState(dir + "/train_state.edge");
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value().next_epoch, 1);

  // Resuming (without the flag) completes the run with the full history.
  EdgeConfig resume_config = config;
  resume_config.recovery.stop_flag = nullptr;
  EdgeModel resumed(resume_config);
  resumed.Fit(*processed_);
  EXPECT_EQ(resumed.loss_history().size(), 6u);
}

// Training goes on (and the run completes) even when every checkpoint write
// fails: checkpointing is best-effort by design.
TEST_F(FitRecoveryTest, PersistentCheckpointFailureDoesNotStopTraining) {
  obs::Registry& registry = obs::Registry::Global();
  int64_t failures_before =
      registry.GetCounter("edge.core.checkpoint_failures")->value();
  std::string dir = FreshDir("checkpoint_failures");
  ASSERT_TRUE(fault::Configure("io.checkpoint.write=error"));
  EdgeConfig config = SmallConfig(1);
  config.recovery.checkpoint_dir = dir;
  EdgeModel model(config);
  model.Fit(*processed_);
  fault::Disarm();
  EXPECT_EQ(model.loss_history().size(), 6u);
  EXPECT_GT(registry.GetCounter("edge.core.checkpoint_failures")->value(),
            failures_before);
}

}  // namespace
}  // namespace edge::core
