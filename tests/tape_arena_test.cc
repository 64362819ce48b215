#include "edge/nn/tape_arena.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/rng.h"
#include "edge/common/thread_pool.h"
#include "edge/core/edge_model.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/graph/entity_graph.h"
#include "edge/graph/gcn.h"
#include "edge/nn/autodiff.h"
#include "edge/nn/init.h"
#include "edge/nn/mdn.h"
#include "edge/nn/optimizer.h"
#include "edge/obs/metrics.h"

namespace edge::nn {
namespace {

/// Restores the arena switch and drops any buffers this test parked, so
/// bucket state never leaks between tests.
class TapeArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTapeArenaEnabled(true);
    if (TapeArena* arena = TapeArena::LocalOrNull()) arena->Trim();
    ResetLocalTapeArenaStatsForTest();
  }
  void TearDown() override {
    SetTapeArenaEnabled(true);
    if (TapeArena* arena = TapeArena::LocalOrNull()) arena->Trim();
  }
};

TEST_F(TapeArenaTest, BufferRoundTripIsAHit) {
  TapeArena* arena = TapeArena::LocalOrNull();
  ASSERT_NE(arena, nullptr);
  std::vector<double> buffer = arena->AcquireBuffer(100);
  EXPECT_GE(buffer.capacity(), 100u);
  EXPECT_EQ(arena->stats().buffer_hits, 0);
  EXPECT_EQ(arena->stats().buffer_misses, 1);
  arena->ReleaseBuffer(std::move(buffer));
  EXPECT_EQ(arena->stats().buffers_parked, 1);
  // Any size in the same power-of-two class (65..128) reuses the block.
  std::vector<double> again = arena->AcquireBuffer(128);
  EXPECT_GE(again.capacity(), 128u);
  EXPECT_EQ(arena->stats().buffer_hits, 1);
  EXPECT_EQ(arena->stats().buffers_parked, 0);
  EXPECT_GT(arena->stats().bytes_recycled, 0);
}

TEST_F(TapeArenaTest, DisabledArenaNeverParksOrServes) {
  SetTapeArenaEnabled(false);
  TapeArena* arena = TapeArena::LocalOrNull();
  ASSERT_NE(arena, nullptr);
  std::vector<double> buffer = arena->AcquireBuffer(64);
  arena->ReleaseBuffer(std::move(buffer));
  EXPECT_EQ(arena->stats().buffers_parked, 0);
  std::vector<double> again = arena->AcquireBuffer(64);
  EXPECT_EQ(arena->stats().buffer_hits, 0);
  EXPECT_EQ(arena->stats().buffer_misses, 2);
}

TEST_F(TapeArenaTest, MatrixStorageIsRecycled) {
  { Matrix scratch(30, 40); }  // Parks a 2048-capacity buffer.
  TapeArenaStats before = LocalTapeArenaStats();
  Matrix reused(40, 30);  // Same size class.
  TapeArenaStats after = LocalTapeArenaStats();
  EXPECT_EQ(after.buffer_hits, before.buffer_hits + 1);
  // Recycled storage is indistinguishable from fresh: zero-initialized.
  for (size_t r = 0; r < reused.rows(); ++r) {
    for (size_t c = 0; c < reused.cols(); ++c) EXPECT_EQ(reused.At(r, c), 0.0);
  }
}

TEST_F(TapeArenaTest, NodeBlocksAreRecycled) {
  { Var v = Param(Matrix(4, 4)); }
  TapeArenaStats before = LocalTapeArenaStats();
  { Var v = Param(Matrix(4, 4)); }
  TapeArenaStats after = LocalTapeArenaStats();
  EXPECT_EQ(after.node_hits, before.node_hits + 1);
  EXPECT_EQ(after.node_misses, before.node_misses);
}

TEST_F(TapeArenaTest, ObsCountersMirrorReuse) {
  obs::Counter* reused =
      obs::Registry::Global().GetCounter("edge.nn.tape.buffers_reused");
  int64_t before = reused->value();
  { Matrix scratch(16, 16); }
  Matrix again(16, 16);
  EXPECT_EQ(reused->value(), before + 1);
}

/// One EDGE-shaped training step: GCN forward over a CSR graph, gather +
/// concat pooling, MDN loss, backward, clip, Adam. Shapes repeat exactly
/// across calls, which is what the arena exploits.
struct TrainFixture {
  graph::EntityGraph graph;
  CsrMatrix adjacency;
  Matrix features;
  graph::GcnStack stack;
  std::vector<std::vector<size_t>> tweet_ids;
  Matrix targets;
  MdnOptions mdn_options;
  Var head_w;
  Var head_b;
  Adam adam;

  static graph::EntityGraph BuildGraph(Rng* rng) {
    std::vector<std::vector<std::string>> entity_sets(300);
    for (auto& set : entity_sets) {
      size_t count = 2 + rng->UniformInt(3);
      for (size_t i = 0; i < count; ++i) {
        set.push_back("e" + std::to_string(rng->UniformInt(80)));
      }
    }
    return graph::EntityGraph::Build(entity_sets);
  }

  static TrainFixture Make(Rng* rng) {
    graph::EntityGraph g = BuildGraph(rng);
    CsrMatrix s = g.NormalizedAdjacency();
    Matrix features = GaussianInit(g.num_nodes(), 16, 0.1, rng);
    graph::GcnStack stack({16, 16}, rng);
    std::vector<std::vector<size_t>> tweet_ids;
    for (size_t t = 0; t < 24; ++t) {
      std::vector<size_t> ids;
      for (size_t i = 0; i < 3; ++i) ids.push_back(rng->UniformInt(g.num_nodes()));
      tweet_ids.push_back(std::move(ids));
    }
    Matrix targets = GaussianInit(tweet_ids.size(), 2, 1.0, rng);
    MdnOptions mdn_options;
    mdn_options.num_components = 2;
    Var head_w = Param(GaussianInit(16, 6 * mdn_options.num_components, 0.1, rng));
    Var head_b = Param(Matrix(1, 6 * mdn_options.num_components));
    std::vector<Var> params = stack.Params();
    params.push_back(head_w);
    params.push_back(head_b);
    Adam adam(params, {});
    return TrainFixture{std::move(g),       std::move(s),       std::move(features),
                        std::move(stack),   std::move(tweet_ids), std::move(targets),
                        mdn_options,        std::move(head_w),  std::move(head_b),
                        std::move(adam)};
  }

  double Step() {
    graph::GcnInput input(&adjacency, features);
    Var h = stack.Forward(input, input.AllRows());
    std::vector<Var> pooled;
    pooled.reserve(tweet_ids.size());
    for (const std::vector<size_t>& ids : tweet_ids) {
      Var hk = GatherRows(h, ids);
      Var ones = Constant(Matrix::Constant(1, ids.size(), 1.0 / ids.size()));
      pooled.push_back(MatMul(ones, hk));
    }
    Var z = ConcatRows(pooled);
    Var theta = AddRowBroadcast(MatMul(z, head_w), head_b);
    Var loss = BivariateMdnLoss(theta, targets, mdn_options);
    Backward(loss);
    std::vector<Var> params = stack.Params();
    params.push_back(head_w);
    params.push_back(head_b);
    ClipGradientNorm(params, 5.0);
    adam.Step();
    return loss->value.At(0, 0);
  }
};

TEST_F(TapeArenaTest, SteadyStateStepsAllocateNothing) {
  ScopedNumThreads serial(1);
  Rng rng(11);
  TrainFixture fixture = TrainFixture::Make(&rng);
  for (int i = 0; i < 3; ++i) fixture.Step();  // Warm the free lists.
  ResetLocalTapeArenaStatsForTest();
  for (int i = 0; i < 5; ++i) fixture.Step();
  TapeArenaStats stats = LocalTapeArenaStats();
  EXPECT_EQ(stats.buffer_misses, 0)
      << "steady-state steps must serve every matrix buffer from the arena";
  EXPECT_EQ(stats.node_misses, 0)
      << "steady-state steps must serve every tape node from the arena";
  EXPECT_GT(stats.buffer_hits, 0);
  EXPECT_GT(stats.node_hits, 0);
}

TEST_F(TapeArenaTest, RecyclingIsBitwiseInvisibleToTraining) {
  ScopedNumThreads serial(1);
  auto run = [](bool arena_enabled) {
    SetTapeArenaEnabled(arena_enabled);
    Rng rng(11);
    TrainFixture fixture = TrainFixture::Make(&rng);
    std::vector<double> losses;
    for (int i = 0; i < 8; ++i) losses.push_back(fixture.Step());
    return losses;
  };
  std::vector<double> with_arena = run(true);
  std::vector<double> without_arena = run(false);
  ASSERT_EQ(with_arena.size(), without_arena.size());
  for (size_t i = 0; i < with_arena.size(); ++i) {
    EXPECT_EQ(with_arena[i], without_arena[i])
        << "loss diverged at step " << i << " — recycling must not touch numerics";
  }
}

data::ProcessedDataset SmallProcessedDataset() {
  data::WorldPresetOptions world_options;
  world_options.num_fine_pois = 15;
  world_options.num_coarse_areas = 3;
  world_options.num_chains = 2;
  world_options.num_topics = 8;
  data::TweetGenerator generator(data::MakeNymaWorld(world_options));
  data::Dataset ds = generator.Generate(600);
  data::Pipeline pipeline(generator.BuildGazetteer());
  return pipeline.Process(ds);
}

TEST_F(TapeArenaTest, EdgeModelLossHistoryMatchesPreArenaPath) {
  data::ProcessedDataset dataset = SmallProcessedDataset();
  auto fit_history = [&](bool arena_enabled) {
    SetTapeArenaEnabled(arena_enabled);
    core::EdgeConfig config;
    config.auto_dim = false;
    config.embedding_dim = 16;
    config.gcn_hidden = {16};
    config.epochs = 2;
    config.batch_size = 64;
    core::EdgeModel model(config);
    model.Fit(dataset);
    return model.loss_history();
  };
  std::vector<double> with_arena = fit_history(true);
  // Disabling the arena routes every acquisition to the plain heap — the
  // pre-arena allocation behaviour.
  std::vector<double> without_arena = fit_history(false);
  ASSERT_EQ(with_arena.size(), 2u);
  ASSERT_EQ(with_arena.size(), without_arena.size());
  for (size_t i = 0; i < with_arena.size(); ++i) {
    EXPECT_EQ(with_arena[i], without_arena[i]);
  }
}

}  // namespace
}  // namespace edge::nn
