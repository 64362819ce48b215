#ifndef EDGE_GRAPH_GCN_H_
#define EDGE_GRAPH_GCN_H_

#include <vector>

#include "edge/common/rng.h"
#include "edge/nn/autodiff.h"

namespace edge::graph {

/// The constant input of a GcnStack over one graph: the symmetric-normalized
/// adjacency S, the node features X and S·X. X never changes while a model
/// trains, so S·X — the first layer's propagation — is computed once here
/// rather than in every training step.
class GcnInput {
 public:
  /// `s` is caller-owned and must outlive this input and every tape built on
  /// it (the entity graph's normalized adjacency).
  GcnInput(const nn::CsrMatrix* s, nn::Matrix x);

  const nn::CsrMatrix* s() const { return s_; }
  const nn::Var& x() const { return x_; }
  const nn::Var& sx() const { return sx_; }

  /// 0 .. N - 1 for the N nodes: the rows argument that asks for the whole
  /// graph.
  std::vector<size_t> AllRows() const;

 private:
  const nn::CsrMatrix* s_;
  nn::Var x_;
  nn::Var sx_;
};

/// A stack of graph-convolution layers (Eq. 1), H' = sigma(S H W), diffusing
/// entity embeddings over their n-hop ego-nets (the paper uses two layers).
/// `dims` are the layer widths including input: {in, hidden..., out}; an
/// empty stack (dims.size() == 1) degenerates to the identity, which is
/// exactly the NoGCN ablation. The propagations S H (row-parallel CSR spmm)
/// and the dense H W run under the global thread budget
/// (edge/common/thread_pool.h) with bitwise-deterministic results at any
/// thread count; the backward pass goes through the same parallel kernels.
///
/// ReLU is applied between layers but the final layer is linear: the paper's
/// text puts ReLU on every conv layer, but a ReLU-terminated embedding stack
/// has an absorbing all-dead state (H = 0 is a local optimum the whole model
/// cannot escape, observed at our CPU scale), and Kipf & Welling's reference
/// GCN likewise keeps the last layer linear. DESIGN.md §4 lists this as a
/// documented deviation.
class GcnStack {
 public:
  GcnStack(const std::vector<size_t>& dims, Rng* rng);

  /// Applies every layer and returns the output rows `rows` (strictly
  /// ascending node ids), row i being node rows[i]. Earlier layers run on
  /// the whole graph; the last one runs on the requested rows only, which is
  /// exact: the rows it skips would reach the loss with zero gradient
  /// (nn::SpMmRows). A training step asks for the nodes its batch reads;
  /// pass input.AllRows() for every node.
  nn::Var Forward(const GcnInput& input, const std::vector<size_t>& rows) const;

  /// All trainable weights, first layer first.
  const std::vector<nn::Var>& Params() const { return weights_; }

  size_t num_layers() const { return weights_.size(); }
  size_t output_dim() const { return output_dim_; }

 private:
  std::vector<nn::Var> weights_;
  size_t output_dim_;
};

}  // namespace edge::graph

#endif  // EDGE_GRAPH_GCN_H_
