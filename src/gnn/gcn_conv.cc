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
  const int num_out = layer.num_out();
  CHECK_EQ(static_cast<int>(layer.self_degree.size()), num_out);
  CHECK_EQ(layer.src_degree.size(), layer.src.size());
  // Constants for autograd.
  const std::vector<float>& self_degree = layer.self_degree;
  const std::vector<float>& src_degree = layer.src_degree;

  // Self term: x_i / (d_i + 1).
  std::vector<float> self_coeff(num_out);
  for (int i = 0; i < num_out; ++i) self_coeff[i] = 1.0f / self_degree[i];
  Tensor agg = RowScale(GatherRows(x, layer.self),
                        Tensor::FromData(num_out, 1, std::move(self_coeff)));

  if (!layer.src.empty()) {
    const int num_edges = static_cast<int>(layer.src.size());
    std::vector<float> norm(num_edges);
    for (int e = 0; e < num_edges; ++e) {
      norm[e] =
          1.0f / std::sqrt(src_degree[e] * self_degree[layer.dst[e]]);
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
