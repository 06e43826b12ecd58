// Graph Attention Network layer (Veličković et al. 2018), single head.
// Used as the alternative Prompt Generator architecture in Fig. 4, where
// GAT's learned attention replaces the reconstruction layer's edge weights.

#ifndef GRAPHPROMPTER_GNN_GAT_CONV_H_
#define GRAPHPROMPTER_GNN_GAT_CONV_H_

#include <memory>

#include "gnn/layer_plan.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace gp {

// alpha_ij = segment_softmax_i( LeakyReLU(a_src^T Wx_j + a_dst^T Wx_i) )
// h_i'     = Wx_i + sum_j alpha_ij * w_ij * Wx_j
//
// The external `edge_weight` (if defined) multiplies the attention weights,
// so reconstruction and attention compose when both are enabled.
class GatConv : public Module {
 public:
  GatConv(int in_dim, int out_dim, Rng* rng, float negative_slope = 0.2f);

  // As SageConv::Forward. Wx and its source scores run on the input rows,
  // which messages read; the residual and the destination scores run on
  // the output rows.
  Tensor Forward(const Tensor& x, const GnnLayerPlan& layer,
                 const Tensor& edge_weight) const;

  int in_dim() const { return linear_->in_features(); }
  int out_dim() const { return linear_->out_features(); }

 private:
  std::unique_ptr<Linear> linear_;
  Tensor attn_src_;  // (out x 1)
  Tensor attn_dst_;  // (out x 1)
  float negative_slope_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_GAT_CONV_H_
