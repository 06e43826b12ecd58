// GraphSAGE convolution (Hamilton et al. 2017) with support for learned
// edge weights — the paper's GNN_D (Eq. 4) aggregates the reconstructed,
// re-weighted data graph with GraphSAGE.

#ifndef GRAPHPROMPTER_GNN_SAGE_CONV_H_
#define GRAPHPROMPTER_GNN_SAGE_CONV_H_

#include <memory>

#include "gnn/layer_plan.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace gp {

// h_i' = W_self x_i + W_nbr * weighted_mean_{j->i}(w_ij * x_j).
//
// When `edge_weight` is undefined all edges weigh 1 (plain mean
// aggregation). Gradients flow into the edge weights, which is what lets
// the Prompt Generator's reconstruction MLP train jointly with the GNN.
class SageConv : public Module {
 public:
  SageConv(int in_dim, int out_dim, Rng* rng);

  // x: (input rows x in). Computes the rows and edges of `layer` (messages
  // flow src to dst) and returns (layer.num_out() x out). edge_weight:
  // (rows x 1) indexed by layer.weight, or undefined. The self projection
  // runs on the output rows only.
  Tensor Forward(const Tensor& x, const GnnLayerPlan& layer,
                 const Tensor& edge_weight) const;

  int in_dim() const { return self_->in_features(); }
  int out_dim() const { return self_->out_features(); }

 private:
  std::unique_ptr<Linear> self_;
  std::unique_ptr<Linear> neighbor_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_SAGE_CONV_H_
