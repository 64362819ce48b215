/// Thread-parity suite: the contract of the parallel compute substrate is
/// that num_threads > 1 changes wall-clock, never numbers. Dense matmul, CSR
/// propagation, full GCN forward/backward and a whole Fit (entity2vec
/// included) must be BITWISE identical at every budget.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "edge/common/rng.h"
#include "edge/common/thread_pool.h"
#include "edge/core/edge_model.h"
#include "edge/data/generator.h"
#include "edge/data/worlds.h"
#include "edge/eval/metrics.h"
#include "edge/graph/entity_graph.h"
#include "edge/graph/gcn.h"
#include "edge/nn/autodiff.h"
#include "edge/nn/init.h"
#include "edge/nn/matrix.h"
#include "edge/nn/sparse.h"

namespace edge {
namespace {

/// Exact equality, element for element — EXPECT_EQ on doubles, not a
/// tolerance: the whole point is that the parallel schedule does not perturb
/// a single ulp.
void ExpectBitwiseEqual(const nn::Matrix& a, const nn::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c)) << "entry (" << r << ", " << c << ")";
    }
  }
}

TEST(ParallelParityTest, DenseMatMulKernelsBitwiseIdentical) {
  Rng rng(11);
  nn::Matrix a = nn::GaussianInit(130, 70, 1.0, &rng);
  nn::Matrix b = nn::GaussianInit(70, 90, 1.0, &rng);
  nn::Matrix c = nn::GaussianInit(130, 90, 1.0, &rng);

  nn::Matrix mm1, ta1, tb1;
  {
    ScopedNumThreads scoped(1);
    mm1 = nn::MatMul(a, b);
    ta1 = nn::MatMulTransposeA(a, c);
    tb1 = nn::MatMulTransposeB(a, a);
  }
  {
    ScopedNumThreads scoped(4);
    ExpectBitwiseEqual(mm1, nn::MatMul(a, b));
    ExpectBitwiseEqual(ta1, nn::MatMulTransposeA(a, c));
    ExpectBitwiseEqual(tb1, nn::MatMulTransposeB(a, a));
  }
  {
    ScopedNumThreads scoped(0);  // Hardware concurrency.
    ExpectBitwiseEqual(mm1, nn::MatMul(a, b));
  }
}

// --- Reference kernels: the plain triple loops the blocked/register-tiled
// kernels must reproduce bit for bit. Every out(i, j) accumulates its k terms
// one at a time in ascending order; the production kernels keep exactly that
// per-element association, so equality here is EXPECT_EQ, not a tolerance. ---

nn::Matrix ReferenceMatMul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += a.At(i, k) * b.At(k, j);
      }
    }
  }
  return out;
}

nn::Matrix ReferenceMatMulTransposeA(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.cols(), b.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t k = 0; k < a.rows(); ++k) {
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += a.At(k, i) * b.At(k, j);
      }
    }
  }
  return out;
}

nn::Matrix ReferenceMatMulTransposeB(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double dot = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) dot += a.At(i, k) * b.At(j, k);
      out.At(i, j) = dot;
    }
  }
  return out;
}

nn::Matrix ReferenceTransposed(const nn::Matrix& a) {
  nn::Matrix out(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) out.At(c, r) = a.At(r, c);
  }
  return out;
}

TEST(ParallelParityTest, BlockedKernelsMatchNaiveReferenceOnOddShapes) {
  // Shapes straddling every tile boundary: single row/column, prime
  // dimensions below and above the k-tile (64) and the 4/2/1-row panel split,
  // plus a shape with all three dims prime and > 2 tiles of k.
  struct Shape {
    size_t m, k, n;
  };
  const Shape shapes[] = {{1, 1, 1},   {1, 7, 1},    {1, 64, 17},  {3, 3, 3},
                          {5, 65, 2},  {17, 31, 17}, {31, 127, 3}, {63, 64, 65},
                          {7, 129, 11}};
  Rng rng(41);
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("shape " + std::to_string(shape.m) + "x" + std::to_string(shape.k) +
                 "x" + std::to_string(shape.n));
    nn::Matrix a = nn::GaussianInit(shape.m, shape.k, 1.0, &rng);
    nn::Matrix b = nn::GaussianInit(shape.k, shape.n, 1.0, &rng);
    nn::Matrix at = nn::GaussianInit(shape.k, shape.m, 1.0, &rng);
    nn::Matrix bt = nn::GaussianInit(shape.n, shape.k, 1.0, &rng);
    nn::Matrix mm = ReferenceMatMul(a, b);
    nn::Matrix ta = ReferenceMatMulTransposeA(at, b);
    nn::Matrix tb = ReferenceMatMulTransposeB(a, bt);
    nn::Matrix tr = ReferenceTransposed(a);
    for (int threads : {1, 2, 3, 4, 8}) {
      ScopedNumThreads scoped(threads);
      ExpectBitwiseEqual(mm, nn::MatMul(a, b));
      ExpectBitwiseEqual(ta, nn::MatMulTransposeA(at, b));
      ExpectBitwiseEqual(tb, nn::MatMulTransposeB(a, bt));
      ExpectBitwiseEqual(tr, a.Transposed());
    }
  }
}

TEST(ParallelParityTest, SelfMultiplyMatchesReference) {
  // MatMulTransposeA/B with both operands the same matrix (gram products) —
  // the aliasing case the EDGE_RESTRICT annotations must stay truthful for.
  Rng rng(43);
  nn::Matrix a = nn::GaussianInit(37, 29, 1.0, &rng);
  ExpectBitwiseEqual(ReferenceMatMulTransposeA(a, a), nn::MatMulTransposeA(a, a));
  ExpectBitwiseEqual(ReferenceMatMulTransposeB(a, a), nn::MatMulTransposeB(a, a));
}

TEST(ParallelParityTest, CsrMultiplyBitwiseIdentical) {
  Rng rng(12);
  std::vector<nn::Triplet> triplets;
  for (int e = 0; e < 900; ++e) {
    triplets.push_back({rng.UniformInt(150), rng.UniformInt(150), rng.Uniform(-1, 1)});
  }
  nn::CsrMatrix s = nn::CsrMatrix::FromTriplets(150, 150, triplets);
  nn::Matrix h = nn::GaussianInit(150, 48, 0.5, &rng);

  nn::Matrix fwd1, bwd1;
  {
    ScopedNumThreads scoped(1);
    fwd1 = s.Multiply(h);
    bwd1 = s.MultiplyTranspose(h);
  }
  {
    ScopedNumThreads scoped(4);
    ExpectBitwiseEqual(fwd1, s.Multiply(h));
    ExpectBitwiseEqual(bwd1, s.MultiplyTranspose(h));
  }
}

graph::EntityGraph BuildRandomGraph(size_t nodes, size_t tweets, Rng* rng) {
  std::vector<std::vector<std::string>> entity_sets(tweets);
  for (auto& set : entity_sets) {
    size_t k = 2 + rng->UniformInt(3);
    for (size_t i = 0; i < k; ++i) {
      set.push_back("e" + std::to_string(rng->UniformInt(nodes)));
    }
  }
  return graph::EntityGraph::Build(entity_sets);
}

TEST(ParallelParityTest, GcnForwardAndBackwardBitwiseIdentical) {
  Rng rng(13);
  graph::EntityGraph g = BuildRandomGraph(120, 700, &rng);
  nn::CsrMatrix s = g.NormalizedAdjacency();
  const size_t dim = 32;
  nn::Matrix features = nn::GaussianInit(g.num_nodes(), dim, 0.1, &rng);
  graph::GcnStack stack({dim, dim, dim}, &rng);

  auto run = [&](int threads, nn::Matrix* h_out, std::vector<nn::Matrix>* grads) {
    ScopedNumThreads scoped(threads);
    graph::GcnInput input(&s, features);
    nn::Var h = stack.Forward(input, input.AllRows());
    nn::Var loss = nn::MeanAll(nn::Mul(h, h));
    nn::Backward(loss);
    *h_out = h->value;
    grads->clear();
    for (const nn::Var& p : stack.Params()) grads->push_back(p->grad);
  };

  nn::Matrix h1, h4;
  std::vector<nn::Matrix> grads1, grads4;
  run(1, &h1, &grads1);
  run(4, &h4, &grads4);
  ExpectBitwiseEqual(h1, h4);
  ASSERT_EQ(grads1.size(), grads4.size());
  for (size_t p = 0; p < grads1.size(); ++p) ExpectBitwiseEqual(grads1[p], grads4[p]);
}

TEST(ParallelParityTest, FitLossHistoryIdenticalAcrossBudgets) {
  // Fit's whole step — S·X, the row-restricted last layer, batch pooling,
  // backward, Adam — must not move a bit between budgets, including 0 (the
  // hardware count).
  data::WorldPresetOptions world_options;
  world_options.num_fine_pois = 15;
  world_options.num_coarse_areas = 3;
  world_options.num_chains = 2;
  world_options.num_topics = 8;
  data::TweetGenerator generator(data::MakeNymaWorld(world_options));
  data::Pipeline pipeline(generator.BuildGazetteer());
  data::ProcessedDataset dataset = pipeline.Process(generator.Generate(700));
  auto history = [&](int threads) {
    core::EdgeConfig config;
    config.auto_dim = false;
    config.embedding_dim = 24;
    config.gcn_hidden = {24, 24};
    config.epochs = 3;
    config.entity2vec.epochs = 2;
    config.batch_size = 64;
    config.num_threads = threads;
    core::EdgeModel model(config);
    model.Fit(dataset);
    return model.loss_history();
  };
  std::vector<double> serial = history(1);
  ASSERT_EQ(serial.size(), 3u);
  for (int threads : {4, 0}) {
    std::vector<double> parallel = history(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t epoch = 0; epoch < serial.size(); ++epoch) {
      EXPECT_EQ(parallel[epoch], serial[epoch]) << "threads " << threads << " epoch " << epoch;
    }
  }
}

/// Abstains on every third tweet and predicts a deterministic function of the
/// tweet id — a stand-in for Hyper-local-style partial coverage that makes
/// the batched metrics path checkable against the serial contract.
class StubGeolocator : public eval::Geolocator {
 public:
  std::string name() const override { return "Stub"; }
  void Fit(const data::ProcessedDataset&) override {}
  bool PredictPoint(const data::ProcessedTweet& tweet, geo::LatLon* out) override {
    if (tweet.id % 3 == 0) return false;
    out->lat = 40.0 + 1e-3 * static_cast<double>(tweet.id % 50);
    out->lon = -73.0;
    return true;
  }
};

TEST(ParallelParityTest, BatchedMetricsMatchSerialPredictLoop) {
  data::ProcessedDataset dataset;
  Rng rng(31);
  for (int64_t i = 0; i < 200; ++i) {
    data::ProcessedTweet tweet;
    tweet.id = i;
    tweet.location = {40.0 + rng.Uniform(-0.05, 0.05), -73.0 + rng.Uniform(-0.05, 0.05)};
    dataset.test.push_back(tweet);
  }

  StubGeolocator method;
  size_t abstained = 0;
  std::vector<double> batched =
      eval::PredictionErrorsKm(&method, dataset, &abstained);

  // Reference: the pre-batching serial loop, element for element.
  size_t expected_abstained = 0;
  std::vector<double> expected;
  for (const data::ProcessedTweet& tweet : dataset.test) {
    geo::LatLon p;
    if (!method.PredictPoint(tweet, &p)) {
      ++expected_abstained;
      continue;
    }
    expected.push_back(geo::HaversineKm(tweet.location, p));
  }
  EXPECT_EQ(abstained, expected_abstained);
  ASSERT_EQ(batched.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(batched[i], expected[i]);
}

}  // namespace
}  // namespace edge
