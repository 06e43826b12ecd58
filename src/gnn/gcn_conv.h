// Graph Convolutional Network layer (Kipf & Welling 2017) with
// symmetric-normalised, optionally re-weighted aggregation.

#ifndef GRAPHPROMPTER_GNN_GCN_CONV_H_
#define GRAPHPROMPTER_GNN_GCN_CONV_H_

#include <memory>

#include "gnn/layer_plan.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace gp {

// h_i' = W * ( x_i/(d_i+1) + sum_{j->i} w_ij * x_j / sqrt((d_i+1)(d_j+1)) ).
class GcnConv : public Module {
 public:
  GcnConv(int in_dim, int out_dim, Rng* rng);

  // As SageConv::Forward. d_i + 1 and d_j + 1 are read from
  // layer.self_degree and layer.src_degree, which count in-edges over the
  // whole packed edge list.
  Tensor Forward(const Tensor& x, const GnnLayerPlan& layer,
                 const Tensor& edge_weight) const;

  int in_dim() const { return linear_->in_features(); }
  int out_dim() const { return linear_->out_features(); }

 private:
  std::unique_ptr<Linear> linear_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_GCN_CONV_H_
