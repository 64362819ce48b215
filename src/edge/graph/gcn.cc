#include "edge/graph/gcn.h"

#include <numeric>

#include "edge/nn/init.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"

namespace edge::graph {

GcnInput::GcnInput(const nn::CsrMatrix* s, nn::Matrix x) : s_(s) {
  EDGE_CHECK(s != nullptr);
  sx_ = nn::Constant(s->Multiply(x));
  x_ = nn::Constant(std::move(x));
}

std::vector<size_t> GcnInput::AllRows() const {
  std::vector<size_t> rows(x_->rows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

GcnStack::GcnStack(const std::vector<size_t>& dims, Rng* rng) {
  EDGE_CHECK_GE(dims.size(), 1u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    weights_.push_back(nn::Param(nn::XavierUniform(dims[i], dims[i + 1], rng)));
  }
  output_dim_ = dims.back();
}

nn::Var GcnStack::Forward(const GcnInput& input, const std::vector<size_t>& rows) const {
  // The diffusion step of Eq. 1 — the per-batch hot path worth a span of its
  // own in training traces.
  EDGE_TRACE_SPAN("edge.graph.gcn_forward");
  static obs::Counter* forwards =
      obs::Registry::Global().GetCounter("edge.graph.gcn_forwards");
  forwards->Increment();
  if (weights_.empty()) return nn::GatherRows(input.x(), rows);  // NoGCN: X.
  nn::Var h;
  for (size_t i = 0; i < weights_.size(); ++i) {
    const bool last = i + 1 == weights_.size();
    // S·H for this layer: the input's precomputed S·X for the first layer,
    // and only the requested rows for the last.
    nn::Var sh;
    if (i == 0) {
      sh = last ? nn::GatherRows(input.sx(), rows) : input.sx();
    } else {
      sh = last ? nn::SpMmRows(input.s(), rows, h) : nn::SpMm(input.s(), h);
    }
    h = nn::MatMul(sh, weights_[i]);
    if (!last) h = nn::Relu(h);
  }
  return h;
}

}  // namespace edge::graph
