#include <cmath>

#include <gtest/gtest.h>

#include "edge/common/rng.h"
#include "edge/graph/entity_graph.h"
#include "edge/graph/gcn.h"
#include "edge/nn/optimizer.h"

namespace edge::graph {
namespace {

EntityGraph MakeToyGraph() {
  // Tweets: {a, b}, {a, b, c}, {c, d}. Co-occurrence weights: ab=2, ac=1,
  // bc=1, cd=1.
  return EntityGraph::Build({{"a", "b"}, {"a", "b", "c"}, {"c", "d"}});
}

TEST(EntityGraphTest, NodesAndWeights) {
  EntityGraph g = MakeToyGraph();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  size_t a = g.NodeId("a");
  size_t b = g.NodeId("b");
  size_t c = g.NodeId("c");
  size_t d = g.NodeId("d");
  EXPECT_EQ(g.EdgeWeight(a, b), 2.0);
  EXPECT_EQ(g.EdgeWeight(b, a), 2.0);  // Undirected.
  EXPECT_EQ(g.EdgeWeight(a, c), 1.0);
  EXPECT_EQ(g.EdgeWeight(a, d), 0.0);
  EXPECT_EQ(g.Degree(a), 3.0);
  EXPECT_EQ(g.Degree(d), 1.0);
  EXPECT_EQ(g.NodeId("zzz"), EntityGraph::kNotFound);
  EXPECT_EQ(g.NodeName(a), "a");
}

TEST(EntityGraphTest, DuplicateEntityInTweetIgnored) {
  EntityGraph g = EntityGraph::Build({{"x", "x", "y"}});
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.EdgeWeight(g.NodeId("x"), g.NodeId("y")), 1.0);
  EXPECT_EQ(g.EdgeWeight(g.NodeId("x"), g.NodeId("x")), 0.0);
}

TEST(EntityGraphTest, NormalizedAdjacencyMatchesFormula) {
  EntityGraph g = MakeToyGraph();
  nn::Matrix s = g.NormalizedAdjacency().ToDense();
  // Check S against D~^{-1/2} (log1p(A) + I) D~^{-1/2} computed by hand
  // (edge weights are log-damped before normalization; see
  // EntityGraph::NormalizedAdjacency).
  size_t n = g.num_nodes();
  std::vector<double> degree(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) degree[i] += std::log1p(g.EdgeWeight(i, j));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double a_ij = (i == j) ? 1.0 : std::log1p(g.EdgeWeight(i, j));
      double expected = a_ij / std::sqrt(degree[i] * degree[j]);
      EXPECT_NEAR(s.At(i, j), expected, 1e-12) << i << "," << j;
    }
  }
}

TEST(EntityGraphTest, NormalizedAdjacencyRowSumsBounded) {
  // For the symmetric normalization the spectral radius is <= 1; a cheap
  // proxy invariant: every entry is in (0, 1] and diagonal entries positive.
  EntityGraph g = MakeToyGraph();
  nn::Matrix s = g.NormalizedAdjacency().ToDense();
  for (size_t i = 0; i < s.rows(); ++i) {
    EXPECT_GT(s.At(i, i), 0.0);
    for (size_t j = 0; j < s.cols(); ++j) {
      EXPECT_LE(s.At(i, j), 1.0 + 1e-12);
      EXPECT_GE(s.At(i, j), 0.0);
    }
  }
}

TEST(GcnTest, StackShapesAndIdentity) {
  Rng rng(3);
  EntityGraph g = MakeToyGraph();
  nn::CsrMatrix s = g.NormalizedAdjacency();
  GcnInput input(&s, nn::Matrix(4, 8, 0.5));

  GcnStack two_layers({8, 16, 6}, &rng);
  EXPECT_EQ(two_layers.num_layers(), 2u);
  EXPECT_EQ(two_layers.output_dim(), 6u);
  nn::Var h = two_layers.Forward(input, input.AllRows());
  EXPECT_EQ(h->value.rows(), 4u);
  EXPECT_EQ(h->value.cols(), 6u);
  EXPECT_EQ(two_layers.Params().size(), 2u);

  GcnStack identity({8}, &rng);  // No layers: the NoGCN ablation.
  EXPECT_EQ(identity.num_layers(), 0u);
  nn::Var same = identity.Forward(input, input.AllRows());
  EXPECT_TRUE(nn::AllClose(same->value, input.x()->value, 0.0));
}

TEST(GcnTest, DiffusionMixesNeighborInformation) {
  // One-hot features; after one propagation step a node's representation
  // carries mass from its neighbours — the bridge of Observation O2.
  Rng rng(4);
  EntityGraph g = EntityGraph::Build({{"geo", "topic"}});
  nn::CsrMatrix s = g.NormalizedAdjacency();
  nn::Matrix features(2, 2);
  features.At(g.NodeId("geo"), 0) = 1.0;
  features.At(g.NodeId("topic"), 1) = 1.0;
  nn::Var x = nn::Constant(features);
  nn::Matrix diffused = nn::SpMm(&s, x)->value;
  // The topic node now carries geo-feature mass.
  EXPECT_GT(diffused.At(g.NodeId("topic"), 0), 0.0);
  EXPECT_GT(diffused.At(g.NodeId("geo"), 1), 0.0);
}

TEST(GcnTest, TrainingReducesLossThroughGraph) {
  // Teacher-student: labels come from a GCN of the same architecture, so a
  // perfect fit exists; training must recover most of the gap, which
  // exercises gradient flow through SpMm + MatMul + ReLU stacks.
  Rng rng(11);
  EntityGraph g = MakeToyGraph();
  nn::CsrMatrix s = g.NormalizedAdjacency();
  nn::Matrix features(4, 3);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 3; ++c) features.At(r, c) = rng.Uniform(0.1, 1.0);
  }
  Rng teacher_rng(99);
  GcnInput input(&s, features);
  GcnStack teacher({3, 8, 3}, &teacher_rng);
  nn::Matrix labels = teacher.Forward(input, input.AllRows())->value;

  GcnStack stack({3, 8, 3}, &rng);
  nn::AdamOptions adam_options;
  adam_options.learning_rate = 0.02;
  adam_options.weight_decay = 0.0;
  nn::Adam adam(stack.Params(), adam_options);
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 400; ++step) {
    nn::Var h = stack.Forward(input, input.AllRows());
    nn::Var diff = nn::Sub(h, nn::Constant(labels));
    nn::Var loss = nn::MeanAll(nn::Mul(diff, diff));
    nn::Backward(loss);
    adam.Step();
    if (step == 0) first_loss = loss->value.At(0, 0);
    last_loss = loss->value.At(0, 0);
  }
  EXPECT_LT(last_loss, 0.2 * first_loss);
}

}  // namespace
}  // namespace edge::graph
