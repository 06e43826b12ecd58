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
  Tensor out = self_->Forward(GatherRows(x, layer.self));
  if (layer.src.empty()) return out;

  // Weighted mean over incoming messages, in one fused kernel (no
  // per-edge message matrix or ones column is materialised); epsilon
  // guards isolated nodes / all-zero weights. The kernel reads each
  // edge's weight through layer.weight, so its two gradient terms per
  // edge land in the caller's weight grad one by one, as over the full
  // edge list.
  Tensor mean = GatherScaleScatterMean(x, layer.src, layer.dst,
                                       layer.num_out(), edge_weight, 1e-6f,
                                       layer.weight);
  return Add(out, neighbor_->Forward(mean));
}

}  // namespace gp
