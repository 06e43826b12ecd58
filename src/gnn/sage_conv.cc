#include "gnn/sage_conv.h"

#include "tensor/ops.h"

namespace gp {

SageConv::SageConv(int in_dim, int out_dim, Rng* rng) {
  self_ = std::make_unique<Linear>(in_dim, out_dim, rng);
  neighbor_ = std::make_unique<Linear>(in_dim, out_dim, rng,
                                       /*use_bias=*/false);
  RegisterModule("self", self_.get());
  RegisterModule("neighbor", neighbor_.get());
}

Tensor SageConv::Forward(const Tensor& x, const GnnLayerPlan& layer,
                         const Tensor& edge_weight) const {
  CHECK_EQ(layer.src.size(), layer.dst.size());
  // Self term. An input with fewer rows than the output (a first layer
  // with one input row per node, GnnEncoder::Plan) is projected once per
  // input row, and each output row reads its row of that; otherwise the
  // output rows are gathered and projected. A GEMM row depends only on
  // its own operands, so both give the same bits.
  const bool project_inputs = x.rows() < layer.num_out();
  const Tensor self_term =
      self_->Forward(project_inputs ? x : GatherRows(x, layer.self));
  if (layer.src.empty()) {
    return project_inputs ? GatherRows(self_term, layer.self) : self_term;
  }

  // Weighted mean over incoming messages, in one fused kernel (no
  // per-edge message matrix or ones column is materialised); epsilon
  // guards isolated nodes / all-zero weights. The kernel reads each
  // edge's weight through layer.weight, so its two gradient terms per
  // edge land in the caller's weight grad one by one, as over the full
  // edge list.
  Tensor mean = GatherScaleScatterMean(x, layer.src, layer.dst,
                                       layer.num_out(), edge_weight, 1e-6f,
                                       layer.weight);
  // self_term[self] + mean * W_nbr, with the self rows added into the
  // neighbour GEMM's output; an empty index reads self_term's own rows.
  const std::vector<int> own_rows;
  return GatherAddMatMul(self_term, project_inputs ? layer.self : own_rows,
                         mean, neighbor_->weight());
}

}  // namespace gp
