#include "edge/nn/autodiff.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "edge/common/rng.h"
#include "edge/common/thread_pool.h"
#include "edge/nn/sparse.h"
#include "gradcheck.h"

namespace edge::nn {
namespace {

using testing::ExpectGradientsMatch;

/// Random matrix with entries bounded away from zero so ReLU kinks and
/// finite differences do not interact.
Matrix RandomAwayFromZero(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double v = rng->Uniform(0.1, 1.0);
      m.At(r, c) = rng->Bernoulli(0.5) ? v : -v;
    }
  }
  return m;
}

TEST(AutodiffTest, ForwardValues) {
  Var a = Param(Matrix::FromRows({{1, 2}, {3, 4}}));
  Var b = Param(Matrix::FromRows({{5, 6}, {7, 8}}));
  EXPECT_EQ(Add(a, b)->value.At(0, 0), 6.0);
  EXPECT_EQ(Sub(b, a)->value.At(1, 1), 4.0);
  EXPECT_EQ(Scale(a, 3.0)->value.At(1, 0), 9.0);
  EXPECT_EQ(MatMul(a, b)->value.At(0, 0), 19.0);
  EXPECT_EQ(SumAll(a)->value.At(0, 0), 10.0);
  EXPECT_EQ(MeanAll(a)->value.At(0, 0), 2.5);
}

TEST(AutodiffTest, ReluForward) {
  Var a = Param(Matrix::FromRows({{-1, 2}, {0, -3}}));
  Var r = Relu(a);
  EXPECT_EQ(r->value.At(0, 0), 0.0);
  EXPECT_EQ(r->value.At(0, 1), 2.0);
  EXPECT_EQ(r->value.At(1, 1), 0.0);
}

TEST(AutodiffTest, SoftmaxColSumsToOne) {
  Var a = Param(Matrix::FromRows({{1.0}, {2.0}, {3.0}}));
  Var s = SoftmaxCol(a);
  double total = s->value.Sum();
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_GT(s->value.At(2, 0), s->value.At(0, 0));
}

TEST(AutodiffTest, BackwardThroughSharedNode) {
  // loss = sum(a + a) -> dloss/da == 2 everywhere.
  Var a = Param(Matrix::FromRows({{1, 2}}));
  Var loss = SumAll(Add(a, a));
  Backward(loss);
  EXPECT_EQ(a->grad.At(0, 0), 2.0);
  EXPECT_EQ(a->grad.At(0, 1), 2.0);
}

TEST(AutodiffTest, ConstantsReceiveNoGradient) {
  Var a = Param(Matrix::FromRows({{1, 2}}));
  Var c = Constant(Matrix::FromRows({{3, 4}}));
  Var loss = SumAll(Add(a, c));
  EXPECT_TRUE(loss->requires_grad);
  Backward(loss);
  EXPECT_EQ(a->grad.At(0, 1), 1.0);
}

TEST(AutodiffTest, TopologicalOrderParentsFirst) {
  Var a = Param(Matrix(1, 1, 2.0));
  Var b = Scale(a, 3.0);
  Var c = Add(b, b);
  std::vector<Node*> order = TopologicalOrder(c);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), a.get());
  EXPECT_EQ(order.back(), c.get());
}

class OpGradcheckTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam() * 7919 + 13)};
};

TEST_P(OpGradcheckTest, AddSubScale) {
  Var a = Param(RandomAwayFromZero(3, 2, &rng_));
  Var b = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({a, b}, [&] {
    return SumAll(Scale(Sub(Add(a, b), Scale(b, 0.5)), 1.7));
  });
}

TEST_P(OpGradcheckTest, ElementwiseMul) {
  Var a = Param(RandomAwayFromZero(3, 2, &rng_));
  Var b = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({a, b}, [&] { return SumAll(Mul(Mul(a, b), a)); });
}

TEST_P(OpGradcheckTest, MatMulChain) {
  Var a = Param(RandomAwayFromZero(2, 3, &rng_));
  Var b = Param(RandomAwayFromZero(3, 4, &rng_));
  Var c = Param(RandomAwayFromZero(4, 2, &rng_));
  ExpectGradientsMatch({a, b, c}, [&] { return SumAll(MatMul(MatMul(a, b), c)); });
}

TEST_P(OpGradcheckTest, TransposedMatMulOp) {
  // z = a^T b without a transpose node — must match MatMul(Transpose(a), b)
  // in value and differentiate correctly through both operands.
  Var a = Param(RandomAwayFromZero(4, 3, &rng_));
  Var b = Param(RandomAwayFromZero(4, 2, &rng_));
  Matrix via_transpose = MatMul(Transpose(a), b)->value;
  Matrix direct = TransposedMatMul(a, b)->value;
  ASSERT_EQ(direct.rows(), 3u);
  ASSERT_EQ(direct.cols(), 2u);
  for (size_t r = 0; r < direct.rows(); ++r) {
    for (size_t c = 0; c < direct.cols(); ++c) {
      ASSERT_EQ(direct.At(r, c), via_transpose.At(r, c));
    }
  }
  ExpectGradientsMatch({a, b}, [&] { return SumAll(TransposedMatMul(a, b)); });
}

TEST_P(OpGradcheckTest, TransposedMatMulAttentionShaped) {
  // The attention pooling shape: K x 1 weights against K x D rows.
  Var w = Param(RandomAwayFromZero(5, 1, &rng_));
  Var h = Param(RandomAwayFromZero(5, 3, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({w, h, out_w}, [&] {
    return SumAll(MatMul(TransposedMatMul(w, h), out_w));
  });
}

TEST_P(OpGradcheckTest, MatMulOddShapesUnderThreads) {
  // Tile-boundary shapes (1 x N, N x 1, prime dims) through the blocked
  // kernels with a multi-thread budget: forward and backward must both stay
  // finite-difference correct at every panel-remainder path.
  ScopedNumThreads scoped(3);
  int seed = GetParam();
  size_t m = static_cast<size_t>(1 + (seed * 5) % 7);    // 1..7 rows
  size_t k = static_cast<size_t>(1 + (seed * 11) % 13);  // 1..13 inner
  Var a = Param(RandomAwayFromZero(m, k, &rng_));
  Var b = Param(RandomAwayFromZero(k, 1, &rng_));
  ExpectGradientsMatch({a, b}, [&] { return SumAll(MatMul(a, b)); });
  Var c = Param(RandomAwayFromZero(m, k, &rng_));
  ExpectGradientsMatch({a, c}, [&] { return SumAll(TransposedMatMul(a, c)); });
}

TEST_P(OpGradcheckTest, AddRowBroadcast) {
  Var x = Param(RandomAwayFromZero(4, 3, &rng_));
  Var bias = Param(RandomAwayFromZero(1, 3, &rng_));
  ExpectGradientsMatch({x, bias}, [&] { return SumAll(AddRowBroadcast(x, bias)); });
}

TEST_P(OpGradcheckTest, ReluWeighted) {
  Var x = Param(RandomAwayFromZero(3, 3, &rng_));
  Var w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] { return SumAll(MatMul(Relu(x), w)); });
}

TEST_P(OpGradcheckTest, SpMm) {
  CsrMatrix s = CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 0.5}, {0, 1, 0.25}, {1, 1, 1.0}, {2, 0, 0.3}, {2, 2, 0.7}});
  Var x = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({x}, [&] { return SumAll(SpMm(&s, x)); });
}

TEST_P(OpGradcheckTest, SpMmAsymmetricWeighted) {
  // Weighted downstream so SpMm backward must transpose (not rely on
  // symmetry of S).
  CsrMatrix s = CsrMatrix::FromTriplets(3, 3, {{0, 1, 2.0}, {1, 2, -1.0}, {2, 0, 0.5}});
  Var x = Param(RandomAwayFromZero(3, 2, &rng_));
  Var w = Param(RandomAwayFromZero(2, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] { return SumAll(MatMul(SpMm(&s, x), w)); });
}

TEST_P(OpGradcheckTest, GatherRowsWithDuplicates) {
  Var x = Param(RandomAwayFromZero(4, 3, &rng_));
  Var w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] {
    return SumAll(MatMul(GatherRows(x, {0, 2, 2, 3}), w));
  });
}

TEST_P(OpGradcheckTest, TransposeOp) {
  Var x = Param(RandomAwayFromZero(2, 4, &rng_));
  Var w = Param(RandomAwayFromZero(2, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] { return SumAll(MatMul(Transpose(x), w)); });
}

TEST_P(OpGradcheckTest, SoftmaxColOp) {
  Var x = Param(RandomAwayFromZero(5, 1, &rng_));
  Var v = Param(RandomAwayFromZero(5, 1, &rng_));
  ExpectGradientsMatch({x, v}, [&] {
    return SumAll(MatMul(Transpose(SoftmaxCol(x)), v));
  });
}

TEST_P(OpGradcheckTest, ConcatRowsOp) {
  Var a = Param(RandomAwayFromZero(1, 3, &rng_));
  Var b = Param(RandomAwayFromZero(1, 3, &rng_));
  Var w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({a, b, w}, [&] {
    return SumAll(MatMul(ConcatRows({a, b, a}), w));
  });
}

TEST_P(OpGradcheckTest, AttentionBlock) {
  // The exact attention computation EDGE uses (Eq. 2-4).
  Var h = Param(RandomAwayFromZero(4, 3, &rng_));
  Var q = Param(RandomAwayFromZero(3, 1, &rng_));
  Var b = Param(RandomAwayFromZero(1, 1, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 1, &rng_));
  ExpectGradientsMatch({h, q, b, out_w}, [&] {
    Var scores = Relu(AddRowBroadcast(MatMul(h, q), b));
    Var weights = SoftmaxCol(scores);
    Var z = MatMul(Transpose(weights), h);
    return SumAll(MatMul(z, out_w));
  });
}

TEST_P(OpGradcheckTest, SpMmRowsOp) {
  CsrMatrix s = CsrMatrix::FromTriplets(
      4, 4, {{0, 1, 2.0}, {0, 3, 0.4}, {1, 2, -1.0}, {2, 0, 0.5}, {3, 3, 1.5}});
  Var x = Param(RandomAwayFromZero(4, 2, &rng_));
  Var w = Param(RandomAwayFromZero(2, 1, &rng_));
  ExpectGradientsMatch({x, w}, [&] {
    return SumAll(MatMul(SpMmRows(&s, {0, 2, 3}, x), w));
  });
}

/// Pooled batches for the PoolRows checks: tweet 1 has a single entity and
/// row 2 is shared by three tweets.
const std::vector<std::vector<size_t>>& PoolRowLists() {
  static const std::vector<std::vector<size_t>> lists = {{0, 2, 4}, {1}, {2, 3}, {2, 4}};
  return lists;
}

TEST_P(OpGradcheckTest, PoolRowsAttention) {
  Var h = Param(RandomAwayFromZero(5, 3, &rng_));
  Var q = Param(RandomAwayFromZero(3, 1, &rng_));
  Var b = Param(RandomAwayFromZero(1, 1, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({h, q, b, out_w}, [&] {
    return SumAll(MatMul(PoolRows(h, PoolRowLists(), q, b), out_w));
  });
}

TEST_P(OpGradcheckTest, PoolRowsUniform) {
  Var h = Param(RandomAwayFromZero(5, 3, &rng_));
  Var out_w = Param(RandomAwayFromZero(3, 2, &rng_));
  ExpectGradientsMatch({h, out_w}, [&] {
    return SumAll(MatMul(PoolRows(h, PoolRowLists(), nullptr, nullptr), out_w));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpGradcheckTest, ::testing::Range(0, 6));

/// Bit-pattern equality: unlike EXPECT_EQ on doubles, +0.0 and -0.0 differ.
void ExpectSameBits(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<uint64_t>(a.At(r, c)), std::bit_cast<uint64_t>(b.At(r, c)))
          << what << " (" << r << ", " << c << "): " << a.At(r, c) << " vs " << b.At(r, c);
    }
  }
}

Matrix RandomNormal(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m.At(r, c) = rng->Normal();
  }
  return m;
}

/// A head that zeroes some of the pooled gradient (ReLU) and squares the
/// rest, so the pooled rows receive a mix of +0.0 and varied gradients.
Var SquaredReluHead(const Var& z, const Var& w) {
  Var t = Relu(MatMul(z, w));
  return SumAll(Mul(t, t));
}

/// The per-tweet tape PoolRows replaces: per tweet a gather, then attention
/// (Eq. 2-4) or a row of ones, and one ConcatRows for the batch.
Var ComposedPool(const Var& h, const std::vector<std::vector<size_t>>& row_lists,
                 const Var& q, const Var& b) {
  std::vector<Var> pooled;
  for (const std::vector<size_t>& rows : row_lists) {
    Var hk = GatherRows(h, rows);
    if (q != nullptr) {
      Var weights = SoftmaxCol(Relu(AddRowBroadcast(MatMul(hk, q), b)));
      pooled.push_back(TransposedMatMul(weights, hk));
    } else {
      pooled.push_back(MatMul(Constant(Matrix::Constant(1, rows.size(), 1.0)), hk));
    }
  }
  return ConcatRows(pooled);
}

TEST(PoolRowsTest, BitwiseEqualToComposedPerTweetTape) {
  Rng rng(29);
  const size_t nodes = 40;
  const size_t dim = 12;
  std::vector<std::vector<size_t>> row_lists(72);
  for (std::vector<size_t>& rows : row_lists) {
    size_t count = 1 + rng.UniformInt(4);
    while (rows.size() < count) {
      size_t r = rng.UniformInt(nodes);
      if (std::find(rows.begin(), rows.end(), r) == rows.end()) rows.push_back(r);
    }
  }
  Var h_leaf = Param(RandomNormal(nodes, dim, &rng));
  Var q = Param(RandomNormal(dim, 1, &rng));
  Var b = Param(Matrix(1, 1, -0.3));  // Pushes some scores below the ReLU.
  Var w = Param(RandomNormal(dim, 6, &rng));
  for (bool attention : {true, false}) {
    SCOPED_TRACE(attention ? "attention" : "uniform");
    Var qa = attention ? q : nullptr;
    Var ba = attention ? b : nullptr;
    auto run = [&](bool fused, std::vector<Matrix>* out) {
      Var h = Scale(h_leaf, 1.0);  // An op output, as the GCN's is in Fit.
      Var z = fused ? PoolRows(h, row_lists, qa, ba) : ComposedPool(h, row_lists, qa, ba);
      Backward(SquaredReluHead(z, w));
      *out = {z->value, h->grad, h_leaf->grad, w->grad};
      if (attention) {
        out->push_back(q->grad);
        out->push_back(b->grad);
      }
    };
    std::vector<Matrix> composed;
    std::vector<Matrix> fused;
    run(false, &composed);
    run(true, &fused);
    const char* names[] = {"value", "h grad", "h leaf grad", "head grad", "q grad",
                           "bias grad"};
    ASSERT_EQ(composed.size(), fused.size());
    for (size_t i = 0; i < composed.size(); ++i) {
      ExpectSameBits(fused[i], composed[i], names[i]);
    }
  }
}

TEST(SpMmRowsTest, BitwiseEqualToGatheredFullProduct) {
  Rng rng(31);
  const size_t nodes = 50;
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < nodes; ++r) {
    triplets.push_back({r, r, rng.Uniform(0.1, 1.0)});
    for (int e = 0; e < 4; ++e) {
      // Signed weights: the skipped rows' products are then -0.0 as well as
      // +0.0, both of which must leave the accumulators alone.
      triplets.push_back({r, rng.UniformInt(nodes), rng.Uniform(-1.0, 1.0)});
    }
  }
  CsrMatrix s = CsrMatrix::FromTriplets(nodes, nodes, std::move(triplets));
  std::vector<size_t> rows;
  for (size_t r = 0; r < nodes; ++r) {
    if (rng.Bernoulli(0.3)) rows.push_back(r);
  }
  ASSERT_FALSE(rows.empty());
  Var x = Param(RandomNormal(nodes, 9, &rng));
  Var w = Param(RandomNormal(9, 5, &rng));
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    auto run = [&](bool restricted, std::vector<Matrix>* out) {
      Var y = restricted ? SpMmRows(&s, rows, x) : GatherRows(SpMm(&s, x), rows);
      Backward(SquaredReluHead(y, w));
      *out = {y->value, x->grad, w->grad};
    };
    std::vector<Matrix> full;
    std::vector<Matrix> restricted;
    run(false, &full);
    run(true, &restricted);
    ExpectSameBits(restricted[0], full[0], "value");
    ExpectSameBits(restricted[1], full[1], "x grad");
    ExpectSameBits(restricted[2], full[2], "w grad");
  }
}

}  // namespace
}  // namespace edge::nn
