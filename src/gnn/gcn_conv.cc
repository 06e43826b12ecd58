#include "gnn/gcn_conv.h"

#include <cmath>

#include "tensor/ops.h"

namespace gp {

GcnConv::GcnConv(int in_dim, int out_dim, Rng* rng) {
  linear_ = std::make_unique<Linear>(in_dim, out_dim, rng);
  RegisterModule("linear", linear_.get());
}

Tensor GcnConv::Forward(const Tensor& x, const GnnLayerPlan& layer,
                        const Tensor& edge_weight) const {
  CHECK_EQ(layer.src.size(), layer.dst.size());
  CHECK_EQ(static_cast<int>(layer.degree.size()), x.rows());
  const int num_out = layer.num_out();
  const std::vector<float>& degree = layer.degree;  // constants for autograd

  // Self term: x_i / (d_i + 1).
  std::vector<float> self_coeff(num_out);
  for (int i = 0; i < num_out; ++i) {
    self_coeff[i] = 1.0f / degree[layer.self[i]];
  }
  Tensor agg = RowScale(GatherRows(x, layer.self),
                        Tensor::FromData(num_out, 1, std::move(self_coeff)));

  if (!layer.src.empty()) {
    const int num_edges = static_cast<int>(layer.src.size());
    std::vector<float> norm(num_edges);
    for (int e = 0; e < num_edges; ++e) {
      norm[e] = 1.0f / std::sqrt(degree[layer.src[e]] *
                                 degree[layer.self[layer.dst[e]]]);
    }
    Tensor coeff = Tensor::FromData(num_edges, 1, std::move(norm));
    if (edge_weight.defined()) {
      coeff = Mul(GatherRows(edge_weight, layer.weight), coeff);
    }
    agg = Add(agg,
              GatherScaleScatterSum(x, layer.src, layer.dst, num_out, coeff));
  }
  return linear_->Forward(agg);
}

}  // namespace gp
