#include "gnn/gat_conv.h"

#include "tensor/ops.h"

namespace gp {

GatConv::GatConv(int in_dim, int out_dim, Rng* rng, float negative_slope)
    : negative_slope_(negative_slope) {
  linear_ = std::make_unique<Linear>(in_dim, out_dim, rng);
  RegisterModule("linear", linear_.get());
  attn_src_ = RegisterParameter("attn_src", Tensor::Xavier(out_dim, 1, rng));
  attn_dst_ = RegisterParameter("attn_dst", Tensor::Xavier(out_dim, 1, rng));
}

Tensor GatConv::Forward(const Tensor& x, const GnnLayerPlan& layer,
                        const Tensor& edge_weight) const {
  CHECK_EQ(layer.src.size(), layer.dst.size());
  const int num_out = layer.num_out();
  Tensor h = linear_->Forward(x);
  if (layer.src.empty()) return GatherRows(h, layer.self);

  // Per-node attention scores, then per-edge logits. Each use of an output
  // row of h gathers it on its own, so h's grad receives the residual, the
  // messages, the destination scores and the source scores as four
  // separate terms, in that order, as when every op reads h whole.
  Tensor score_src = MatMul(h, attn_src_);                          // in x 1
  Tensor score_dst = MatMul(GatherRows(h, layer.self), attn_dst_);  // out x 1
  Tensor logits =
      LeakyRelu(Add(GatherRows(score_src, layer.src),
                    GatherRows(score_dst, layer.dst)),
                negative_slope_);
  // Softmax over each destination node's incoming edges.
  Tensor alpha = SegmentSoftmax(logits, layer.dst, num_out);
  if (edge_weight.defined()) {
    alpha = Mul(alpha, GatherRows(edge_weight, layer.weight));
  }
  // h_i + messages_i, summed in the other order (float addition commutes)
  // so that the residual's gather runs its backward first.
  return Add(GatherScaleScatterSum(h, layer.src, layer.dst, num_out, alpha),
             GatherRows(h, layer.self));
}

}  // namespace gp
