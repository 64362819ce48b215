#ifndef EDGE_NN_AUTODIFF_H_
#define EDGE_NN_AUTODIFF_H_

#include <functional>
#include <memory>
#include <vector>

#include "edge/nn/matrix.h"
#include "edge/nn/sparse.h"

namespace edge::nn {

class Node;

/// Handle to a tape node. The expression graph is dynamic: every op call
/// allocates a node holding its value, its parents and a backward closure,
/// exactly like a define-by-run framework. Graphs are rebuilt per training
/// step (EDGE batches are small and the entity graph dominates cost), which
/// keeps the engine simple and the per-op backward code verifiable by
/// finite differences. Node storage and Matrix buffers are recycled across
/// steps through the thread-local tape arena (edge/nn/tape_arena.h), so the
/// rebuild is allocation-free once shapes have been seen.
using Var = std::shared_ptr<Node>;

/// A node on the tape: forward value, accumulated gradient, parents and the
/// closure that routes this node's gradient into its parents' gradients.
class Node {
 public:
  Node(Matrix value, bool requires_grad)
      : value(std::move(value)), requires_grad(requires_grad) {}

  Matrix value;
  Matrix grad;  ///< Same shape as value; (re)initialized by Backward().
  bool requires_grad;
  std::vector<Var> parents;
  std::function<void(Node*)> backward_fn;  ///< Null for leaves.

  size_t rows() const { return value.rows(); }
  size_t cols() const { return value.cols(); }
};

/// Creates a trainable leaf (gradient is produced by Backward).
Var Param(Matrix value);

/// Creates a non-trainable leaf (no gradient flows into it).
Var Constant(Matrix value);

/// Low-level constructor for fused ops (MDN loss, conv, pooling). The
/// backward closure must *accumulate* (+=) into each parent's grad and must
/// skip parents whose requires_grad is false. requires_grad of the new node
/// is the OR of its parents'.
Var MakeOpNode(Matrix value, std::vector<Var> parents,
               std::function<void(Node*)> backward_fn);

/// z = a + b (same shape).
Var Add(const Var& a, const Var& b);
/// z = a - b (same shape).
Var Sub(const Var& a, const Var& b);
/// z = s * a.
Var Scale(const Var& a, double s);
/// z = a ∘ b (elementwise/Hadamard product, same shape).
Var Mul(const Var& a, const Var& b);
/// z = a * b (matrix product).
Var MatMul(const Var& a, const Var& b);
/// z = a^T * b without putting a transpose copy on the tape (the attention
/// pooling step z = w^T H). Forward and backward both run through the
/// transpose-free blocked kernels.
Var TransposedMatMul(const Var& a, const Var& b);
/// z = x + 1 * bias broadcast over rows; x is R x C, bias is 1 x C.
Var AddRowBroadcast(const Var& x, const Var& bias);
/// Elementwise max(x, 0).
Var Relu(const Var& x);
/// z = S * x for a constant sparse S (the GCN propagation step). `sparse`
/// must outlive the tape; it is owned by the caller (the entity graph).
Var SpMm(const CsrMatrix* sparse, const Var& x);
/// Rows `rows` (strictly ascending) of S * x: row i is row rows[i] of
/// SpMm(sparse, x), bitwise, and the backward scatters S[rows, :]^T * dZ in
/// ascending row order. That gradient equals SpMm's when the rows not listed
/// get a zero gradient: their products are ±0.0, and adding ±0.0 to an
/// accumulator that started at +0.0 changes nothing under round-to-nearest
/// (finite values assumed). The GCN's last layer runs on this, for the rows a
/// training batch reads.
Var SpMmRows(const CsrMatrix* sparse, std::vector<size_t> rows, const Var& x);
/// Selects rows of x by index (duplicates allowed); backward scatter-adds.
Var GatherRows(const Var& x, std::vector<size_t> indices);
/// Pools rows of h into one vector per tweet (Eq. 2-4), for a whole batch in
/// one tape node: row b of the B x D result pools the rows row_lists[b] of
/// the N x D h. With attention (q: D x 1, bias: 1 x 1), the weights are
/// softmax(relu(h_k q + bias)) over the tweet's rows h_k and the row is
/// weights^T h_k; with q and bias null every weight is 1 (the SUM ablation).
/// Value and gradients are bitwise those of the per-tweet tape GatherRows ->
/// MatMul -> AddRowBroadcast -> Relu -> SoftmaxCol -> TransposedMatMul (SUM:
/// MatMul by a row of ones) followed by ConcatRows: every partial is formed
/// the way those ops form it, and the backward adds them into h, q and bias
/// in descending tweet order, the order that tape's reverse topological
/// walk visits the tweets in.
Var PoolRows(const Var& h, std::vector<std::vector<size_t>> row_lists, const Var& q,
             const Var& bias);
/// Matrix transpose.
Var Transpose(const Var& x);
/// Softmax over the single column of a K x 1 matrix (attention weights,
/// Eq. 3).
Var SoftmaxCol(const Var& x);
/// Stacks 1 x C rows into an N x C matrix (tweet embeddings into a batch).
Var ConcatRows(const std::vector<Var>& rows);
/// 1 x 1 sum of all elements.
Var SumAll(const Var& x);
/// 1 x 1 mean of all elements.
Var MeanAll(const Var& x);

/// Runs reverse-mode accumulation from a 1 x 1 root: zeroes the gradient of
/// every reachable node that requires one, seeds the root with 1 and applies
/// backward closures in reverse topological order. After the call, each
/// reachable Param's `grad` holds d(root)/d(param). Nodes with
/// requires_grad == false never get gradient storage — no closure reads it —
/// which keeps large Constant leaves (the GCN feature matrix) free of
/// per-step zeroing cost.
void Backward(const Var& root);

/// Collects every distinct reachable node in topological order (parents
/// before children). Exposed for tests.
std::vector<Node*> TopologicalOrder(const Var& root);

}  // namespace edge::nn

#endif  // EDGE_NN_AUTODIFF_H_
