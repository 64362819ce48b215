#include "edge/nn/autodiff.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "edge/nn/tape_arena.h"
#include "edge/obs/trace.h"

namespace edge::nn {

namespace {

/// All tape nodes come from the thread-local arena: allocate_shared fuses the
/// control block and the Node into one block that the arena recycles across
/// training steps.
Var NewNode(Matrix value, bool requires_grad) {
  return std::allocate_shared<Node>(ArenaAllocator<Node>(), std::move(value),
                                    requires_grad);
}

}  // namespace

Var Param(Matrix value) { return NewNode(std::move(value), true); }

Var Constant(Matrix value) { return NewNode(std::move(value), false); }

Var MakeOpNode(Matrix value, std::vector<Var> parents,
               std::function<void(Node*)> backward_fn) {
  bool requires_grad = false;
  for (const Var& p : parents) {
    EDGE_CHECK(p != nullptr);
    requires_grad = requires_grad || p->requires_grad;
  }
  Var node = NewNode(std::move(value), requires_grad);
  node->parents = std::move(parents);
  if (requires_grad) node->backward_fn = std::move(backward_fn);
  return node;
}

Var Add(const Var& a, const Var& b) {
  Matrix value = a->value.Add(b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    for (int i = 0; i < 2; ++i) {
      Node* p = n->parents[i].get();
      if (p->requires_grad) p->grad.AddInPlace(n->grad);
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  Matrix value = a->value.Sub(b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) pa->grad.AddInPlace(n->grad);
    if (pb->requires_grad) pb->grad.Axpy(-1.0, n->grad);
  });
}

Var Scale(const Var& a, double s) {
  return MakeOpNode(a->value.Scaled(s), {a}, [s](Node* n) {
    Node* p = n->parents[0].get();
    if (p->requires_grad) p->grad.Axpy(s, n->grad);
  });
}

Var Mul(const Var& a, const Var& b) {
  Matrix value = a->value.Hadamard(b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (pa->requires_grad) pa->grad.AddInPlace(n->grad.Hadamard(pb->value));
    if (pb->requires_grad) pb->grad.AddInPlace(n->grad.Hadamard(pa->value));
  });
}

Var MatMul(const Var& a, const Var& b) {
  Matrix value = MatMul(a->value, b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    // dA = dZ * B^T ; dB = A^T * dZ.
    if (pa->requires_grad) pa->grad.AddInPlace(MatMulTransposeB(n->grad, pb->value));
    if (pb->requires_grad) pb->grad.AddInPlace(MatMulTransposeA(pa->value, n->grad));
  });
}

Var TransposedMatMul(const Var& a, const Var& b) {
  Matrix value = MatMulTransposeA(a->value, b->value);
  return MakeOpNode(std::move(value), {a, b}, [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    // z = A^T B: dA = B * dZ^T ; dB = A * dZ.
    if (pa->requires_grad) pa->grad.AddInPlace(MatMulTransposeB(pb->value, n->grad));
    if (pb->requires_grad) pb->grad.AddInPlace(MatMul(pa->value, n->grad));
  });
}

Var AddRowBroadcast(const Var& x, const Var& bias) {
  EDGE_CHECK_EQ(bias->value.rows(), 1u);
  EDGE_CHECK_EQ(bias->value.cols(), x->value.cols());
  Matrix value = x->value;
  {
    const size_t cols = value.cols();
    const double* EDGE_RESTRICT brow = bias->value.data();
    for (size_t r = 0; r < value.rows(); ++r) {
      double* EDGE_RESTRICT row = value.row_data(r);
      for (size_t c = 0; c < cols; ++c) row[c] += brow[c];
    }
  }
  return MakeOpNode(std::move(value), {x, bias}, [](Node* n) {
    Node* px = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (px->requires_grad) px->grad.AddInPlace(n->grad);
    if (pb->requires_grad) {
      const size_t cols = n->grad.cols();
      double* EDGE_RESTRICT acc = pb->grad.row_data(0);
      for (size_t r = 0; r < n->grad.rows(); ++r) {
        const double* EDGE_RESTRICT grow = n->grad.row_data(r);
        for (size_t c = 0; c < cols; ++c) acc[c] += grow[c];
      }
    }
  });
}

Var Relu(const Var& x) {
  Matrix value = x->value;
  {
    double* EDGE_RESTRICT v = value.data();
    const size_t n = value.size();
    for (size_t i = 0; i < n; ++i) {
      if (v[i] < 0.0) v[i] = 0.0;
    }
  }
  return MakeOpNode(std::move(value), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    const double* EDGE_RESTRICT v = p->value.data();
    const double* EDGE_RESTRICT g = n->grad.data();
    double* EDGE_RESTRICT pg = p->grad.data();
    const size_t count = n->grad.size();
    for (size_t i = 0; i < count; ++i) {
      if (v[i] > 0.0) pg[i] += g[i];
    }
  });
}

Var SpMm(const CsrMatrix* sparse, const Var& x) {
  EDGE_CHECK(sparse != nullptr);
  Matrix value = sparse->Multiply(x->value);
  return MakeOpNode(std::move(value), {x}, [sparse](Node* n) {
    Node* p = n->parents[0].get();
    // dX = S^T * dZ.
    if (p->requires_grad) p->grad.AddInPlace(sparse->MultiplyTranspose(n->grad));
  });
}

Var SpMmRows(const CsrMatrix* sparse, std::vector<size_t> rows, const Var& x) {
  EDGE_CHECK(sparse != nullptr);
  for (size_t i = 1; i < rows.size(); ++i) {
    EDGE_CHECK_LT(rows[i - 1], rows[i]) << "SpMmRows rows must be strictly ascending";
  }
  Matrix value = sparse->MultiplyRows(rows, x->value);
  return MakeOpNode(std::move(value), {x}, [sparse, rows = std::move(rows)](Node* n) {
    Node* p = n->parents[0].get();
    if (p->requires_grad) {
      p->grad.AddInPlace(sparse->MultiplyRowsTranspose(rows, n->grad));
    }
  });
}

Var GatherRows(const Var& x, std::vector<size_t> indices) {
  Matrix value(indices.size(), x->value.cols());
  const size_t cols = value.cols();
  for (size_t i = 0; i < indices.size(); ++i) {
    EDGE_CHECK_LT(indices[i], x->value.rows());
    ConstRowSpan src = x->value.RowSpan(indices[i]);
    std::copy(src.begin(), src.end(), value.row_data(i));
  }
  return MakeOpNode(std::move(value), {x}, [indices = std::move(indices), cols](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    for (size_t i = 0; i < indices.size(); ++i) {
      const double* EDGE_RESTRICT grow = n->grad.row_data(i);
      double* EDGE_RESTRICT prow = p->grad.row_data(indices[i]);
      for (size_t c = 0; c < cols; ++c) prow[c] += grow[c];
    }
  });
}

Var PoolRows(const Var& h, std::vector<std::vector<size_t>> row_lists, const Var& q,
             const Var& bias) {
  const bool attention = q != nullptr;
  EDGE_CHECK_EQ(attention, bias != nullptr) << "PoolRows needs both q and bias, or neither";
  const Matrix& hv = h->value;
  const size_t dim = hv.cols();
  if (attention) {
    EDGE_CHECK(q->value.rows() == dim && q->value.cols() == 1) << "q must be D x 1";
    EDGE_CHECK(bias->value.rows() == 1 && bias->value.cols() == 1) << "bias must be 1 x 1";
  }
  // Attention state the backward reads, one entry per (tweet, row): the
  // pre-ReLU score and the softmax weight; tweet b's entries start at
  // offsets[b].
  std::vector<size_t> offsets(row_lists.size() + 1, 0);
  std::vector<double> scores;
  std::vector<double> weights;
  Matrix value(row_lists.size(), dim);
  for (size_t b = 0; b < row_lists.size(); ++b) {
    const std::vector<size_t>& rows = row_lists[b];
    EDGE_CHECK(!rows.empty()) << "PoolRows tweet " << b << " has no rows";
    for (size_t r : rows) EDGE_CHECK_LT(r, hv.rows());
    offsets[b + 1] = offsets[b] + rows.size();
    double* EDGE_RESTRICT z = value.row_data(b);
    if (!attention) {
      for (size_t r : rows) {
        const double* EDGE_RESTRICT hr = hv.row_data(r);
        for (size_t j = 0; j < dim; ++j) z[j] += hr[j];  // 1.0 * x == x.
      }
      continue;
    }
    // Eq. 2-3: scores = relu(h_k q + bias), weights = softmax(scores).
    const double* EDGE_RESTRICT qv = q->value.data();
    const size_t first = offsets[b];
    double max_score = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) {
      const double* EDGE_RESTRICT hr = hv.row_data(rows[k]);
      double score = 0.0;
      for (size_t d = 0; d < dim; ++d) score += hr[d] * qv[d];
      score += bias->value.At(0, 0);
      scores.push_back(score);
      double relu = score < 0.0 ? 0.0 : score;
      weights.push_back(relu);
      max_score = k == 0 ? relu : std::max(max_score, relu);
    }
    double sum = 0.0;
    for (size_t k = 0; k < rows.size(); ++k) {
      weights[first + k] = std::exp(weights[first + k] - max_score);
      sum += weights[first + k];
    }
    for (size_t k = 0; k < rows.size(); ++k) weights[first + k] /= sum;
    // Eq. 4: z = weights^T h_k, each element summed in ascending k.
    for (size_t k = 0; k < rows.size(); ++k) {
      const double w = weights[first + k];
      const double* EDGE_RESTRICT hr = hv.row_data(rows[k]);
      for (size_t j = 0; j < dim; ++j) z[j] += w * hr[j];
    }
  }
  std::vector<Var> parents = {h};
  if (attention) {
    parents.push_back(q);
    parents.push_back(bias);
  }
  return MakeOpNode(
      std::move(value), std::move(parents),
      [attention, dim, row_lists = std::move(row_lists), offsets = std::move(offsets),
       scores = std::move(scores), weights = std::move(weights)](Node* n) {
        Node* ph = n->parents[0].get();
        Node* pq = attention ? n->parents[1].get() : nullptr;
        Node* pb = attention ? n->parents[2].get() : nullptr;
        const Matrix& hv = ph->value;
        // Per-tweet scratch: dL/dweights and dL/dscores (post-ReLU mask).
        std::vector<double> gw;
        std::vector<double> gs;
        // Descending tweets: the composed tape's reverse topological order.
        // The "0.0 +" terms reproduce that tape's adds into zeroed gradient
        // buffers, which turn a -0.0 product into +0.0.
        for (size_t b = row_lists.size(); b-- > 0;) {
          const std::vector<size_t>& rows = row_lists[b];
          const double* EDGE_RESTRICT dz = n->grad.row_data(b);
          if (!attention) {
            if (!ph->requires_grad) continue;
            for (size_t r : rows) {
              double* EDGE_RESTRICT hg = ph->grad.row_data(r);
              for (size_t j = 0; j < dim; ++j) hg[j] += 0.0 + dz[j];
            }
            continue;
          }
          const double* w = weights.data() + offsets[b];
          const double* score = scores.data() + offsets[b];
          const size_t count = rows.size();
          // TransposedMatMul backward into the weights: gw_k = h_k . dz.
          gw.assign(count, 0.0);
          for (size_t k = 0; k < count; ++k) {
            const double* EDGE_RESTRICT hr = hv.row_data(rows[k]);
            double acc = 0.0;
            for (size_t j = 0; j < dim; ++j) acc += hr[j] * dz[j];
            gw[k] = acc;
          }
          // SoftmaxCol, then Relu (the mask reads the pre-ReLU score).
          double dot = 0.0;
          for (size_t k = 0; k < count; ++k) dot += gw[k] * w[k];
          gs.assign(count, 0.0);
          for (size_t k = 0; k < count; ++k) {
            double g = 0.0 + w[k] * (gw[k] - dot);
            gs[k] = score[k] > 0.0 ? g : 0.0;
          }
          if (pb->requires_grad) {
            double* acc = pb->grad.data();
            for (size_t k = 0; k < count; ++k) *acc += gs[k];
          }
          // MatMul(h_k, q) backward into q: q_j += sum_k h_kj gs_k.
          if (pq->requires_grad) {
            double* EDGE_RESTRICT qg = pq->grad.data();
            for (size_t j = 0; j < dim; ++j) {
              double acc = 0.0;
              for (size_t k = 0; k < count; ++k) acc += hv.At(rows[k], j) * gs[k];
              qg[j] += acc;
            }
          }
          // Both ops that read h_k add into its gradient: TransposedMatMul
          // (w_k dz), then MatMul (gs_k q^T); GatherRows scatters the sum.
          if (ph->requires_grad) {
            const double* EDGE_RESTRICT qv = pq->value.data();
            for (size_t k = 0; k < count; ++k) {
              double* EDGE_RESTRICT hg = ph->grad.row_data(rows[k]);
              for (size_t j = 0; j < dim; ++j) {
                hg[j] += (0.0 + w[k] * dz[j]) + (0.0 + gs[k] * qv[j]);
              }
            }
          }
        }
      });
}

Var Transpose(const Var& x) {
  return MakeOpNode(x->value.Transposed(), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (p->requires_grad) p->grad.AddInPlace(n->grad.Transposed());
  });
}

Var SoftmaxCol(const Var& x) {
  EDGE_CHECK_EQ(x->value.cols(), 1u);
  EDGE_CHECK_GT(x->value.rows(), 0u);
  Matrix value = x->value;
  double max_v = value.At(0, 0);
  for (size_t r = 1; r < value.rows(); ++r) max_v = std::max(max_v, value.At(r, 0));
  double sum = 0.0;
  for (size_t r = 0; r < value.rows(); ++r) {
    value.At(r, 0) = std::exp(value.At(r, 0) - max_v);
    sum += value.At(r, 0);
  }
  for (size_t r = 0; r < value.rows(); ++r) value.At(r, 0) /= sum;
  return MakeOpNode(std::move(value), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    // dx_i = y_i * (g_i - sum_j g_j y_j).
    double dot = 0.0;
    for (size_t r = 0; r < n->value.rows(); ++r) {
      dot += n->grad.At(r, 0) * n->value.At(r, 0);
    }
    for (size_t r = 0; r < n->value.rows(); ++r) {
      p->grad.At(r, 0) += n->value.At(r, 0) * (n->grad.At(r, 0) - dot);
    }
  });
}

Var ConcatRows(const std::vector<Var>& rows) {
  EDGE_CHECK(!rows.empty());
  size_t cols = rows[0]->value.cols();
  Matrix value(rows.size(), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    EDGE_CHECK_EQ(rows[i]->value.rows(), 1u);
    EDGE_CHECK_EQ(rows[i]->value.cols(), cols);
    ConstRowSpan src = rows[i]->value.RowSpan(0);
    std::copy(src.begin(), src.end(), value.row_data(i));
  }
  return MakeOpNode(std::move(value), rows, [](Node* n) {
    const size_t cols = n->grad.cols();
    for (size_t i = 0; i < n->parents.size(); ++i) {
      Node* p = n->parents[i].get();
      if (!p->requires_grad) continue;
      const double* EDGE_RESTRICT grow = n->grad.row_data(i);
      double* EDGE_RESTRICT prow = p->grad.row_data(0);
      for (size_t c = 0; c < cols; ++c) prow[c] += grow[c];
    }
  });
}

Var SumAll(const Var& x) {
  Matrix value(1, 1);
  value.At(0, 0) = x->value.Sum();
  return MakeOpNode(std::move(value), {x}, [](Node* n) {
    Node* p = n->parents[0].get();
    if (!p->requires_grad) return;
    const double g = n->grad.At(0, 0);
    double* EDGE_RESTRICT pg = p->grad.data();
    const size_t count = p->grad.size();
    for (size_t i = 0; i < count; ++i) pg[i] += g;
  });
}

Var MeanAll(const Var& x) {
  EDGE_CHECK_GT(x->value.size(), 0u);
  return Scale(SumAll(x), 1.0 / static_cast<double>(x->value.size()));
}

std::vector<Node*> TopologicalOrder(const Var& root) {
  EDGE_CHECK(root != nullptr);
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  // Iterative post-order DFS (graphs can be deep for stacked layers).
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      Node* parent = top.node->parents[top.next_parent].get();
      ++top.next_parent;
      if (visited.insert(parent).second) stack.push_back({parent, 0});
    } else {
      order.push_back(top.node);
      stack.pop_back();
    }
  }
  return order;  // Parents precede children.
}

void Backward(const Var& root) {
  EDGE_TRACE_SPAN("edge.nn.backward");
  EDGE_CHECK_EQ(root->value.rows(), 1u);
  EDGE_CHECK_EQ(root->value.cols(), 1u);
  std::vector<Node*> order = TopologicalOrder(root);
  // Gradient storage only where gradients flow: closures never touch the
  // grad of a requires_grad == false node. ResetZero recycles each node's
  // existing buffer (params keep theirs across steps; fresh op nodes draw
  // from the arena), so this loop allocates nothing at steady state.
  for (Node* n : order) {
    if (n->requires_grad) n->grad.ResetZero(n->value.rows(), n->value.cols());
  }
  root->grad.ResetZero(1, 1);
  root->grad.At(0, 0) = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->requires_grad && n->backward_fn) n->backward_fn(n);
  }
}

}  // namespace edge::nn
