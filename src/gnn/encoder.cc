#include "gnn/encoder.h"

#include <cstdint>
#include <utility>

#include "tensor/ops.h"

namespace gp {

const char* GnnArchName(GnnArch arch) {
  switch (arch) {
    case GnnArch::kSage:
      return "GraphSAGE";
    case GnnArch::kGcn:
      return "GCN";
    case GnnArch::kGat:
      return "GAT";
  }
  return "?";
}

GnnEncoder::GnnEncoder(const GnnEncoderConfig& config, Rng* rng)
    : config_(config) {
  CHECK_GE(config.num_layers, 1);
  for (int i = 0; i < config.num_layers; ++i) {
    const int in = (i == 0) ? config.in_dim : config.hidden_dim;
    const int out =
        (i == config.num_layers - 1) ? config.out_dim : config.hidden_dim;
    const std::string name = "conv" + std::to_string(i);
    switch (config.arch) {
      case GnnArch::kSage:
        sage_layers_.push_back(std::make_unique<SageConv>(in, out, rng));
        RegisterModule(name, sage_layers_.back().get());
        break;
      case GnnArch::kGcn:
        gcn_layers_.push_back(std::make_unique<GcnConv>(in, out, rng));
        RegisterModule(name, gcn_layers_.back().get());
        break;
      case GnnArch::kGat:
        gat_layers_.push_back(std::make_unique<GatConv>(in, out, rng));
        RegisterModule(name, gat_layers_.back().get());
        break;
    }
  }
}

GnnPlan GnnEncoder::Plan(int num_rows, const std::vector<int>& src,
                         const std::vector<int>& dst,
                         const std::vector<int>& rows) const {
  CHECK_EQ(src.size(), dst.size());
  const int num_layers = config_.num_layers;
  CHECK_LT(num_layers, 255);
  const int num_edges = static_cast<int>(src.size());

  // depth[r] counts the layer inputs, from the first layer's on, that hold
  // row r: layer l (0-based) reads r iff depth[r] > l and writes it iff
  // depth[r] > l + 1. A row marked in pass l gets depth l + 1, so it
  // reaches no further in that pass.
  std::vector<uint8_t> depth(num_rows, 0);
  for (int r : rows) {
    CHECK(r >= 0 && r < num_rows) << "requested row " << r;
    depth[r] = static_cast<uint8_t>(num_layers + 1);
  }
  for (int l = num_layers - 1; l >= 0; --l) {
    for (int e = 0; e < num_edges; ++e) {
      if (depth[dst[e]] > l + 1 && depth[src[e]] <= l) {
        depth[src[e]] = static_cast<uint8_t>(l + 1);
      }
    }
  }

  GnnPlan plan;
  // Index of each row in the current layer's input and in its output.
  std::vector<int> in_index(num_rows), out_index(num_rows);
  int count = 0;
  for (int r = 0; r < num_rows; ++r) count += depth[r] > 0;
  plan.rows.reserve(count);
  for (int r = 0; r < num_rows; ++r) {
    if (depth[r] == 0) continue;
    in_index[r] = static_cast<int>(plan.rows.size());
    plan.rows.push_back(r);
  }
  count = 0;
  for (int e = 0; e < num_edges; ++e) count += depth[dst[e]] > 1;
  plan.edges.reserve(count);
  plan.edge_src.reserve(count);
  plan.edge_dst.reserve(count);
  for (int e = 0; e < num_edges; ++e) {
    if (depth[dst[e]] <= 1) continue;
    plan.edges.push_back(e);
    plan.edge_src.push_back(in_index[src[e]]);
    plan.edge_dst.push_back(in_index[dst[e]]);
  }

  // GCN's symmetric norm reads every row's in-degree over the whole list.
  std::vector<int> in_degree;
  if (config_.arch == GnnArch::kGcn) {
    in_degree.assign(num_rows, 0);
    for (int d : dst) ++in_degree[d];
  }

  plan.layers.resize(num_layers);
  std::vector<int> in_rows = plan.rows, out_rows;
  for (int l = 0; l < num_layers; ++l) {
    GnnLayerPlan& layer = plan.layers[l];
    count = 0;
    for (int r : in_rows) count += depth[r] > l + 1;
    out_rows.clear();
    out_rows.reserve(count);
    layer.self.reserve(count);
    for (int r : in_rows) {
      if (depth[r] <= l + 1) continue;
      out_index[r] = static_cast<int>(out_rows.size());
      out_rows.push_back(r);
      layer.self.push_back(in_index[r]);
    }
    if (!in_degree.empty()) {
      layer.degree.reserve(in_rows.size());
      for (int r : in_rows) {
        layer.degree.push_back(static_cast<float>(1 + in_degree[r]));
      }
    }
    count = 0;
    for (int e : plan.edges) count += depth[dst[e]] > l + 1;
    layer.src.reserve(count);
    layer.dst.reserve(count);
    layer.weight.reserve(count);
    for (int k = 0; k < static_cast<int>(plan.edges.size()); ++k) {
      const int e = plan.edges[k];
      if (depth[dst[e]] <= l + 1) continue;
      layer.src.push_back(in_index[src[e]]);
      layer.dst.push_back(out_index[dst[e]]);
      layer.weight.push_back(k);
    }
    std::swap(in_rows, out_rows);
    std::swap(in_index, out_index);
  }

  // in_rows now lists the last layer's output rows, ascending.
  if (rows != in_rows) {
    plan.order.reserve(rows.size());
    for (int r : rows) plan.order.push_back(in_index[r]);
  }
  return plan;
}

Tensor GnnEncoder::ApplyLayer(int layer, const Tensor& x,
                              const GnnLayerPlan& plan,
                              const Tensor& edge_weight) const {
  switch (config_.arch) {
    case GnnArch::kSage:
      return sage_layers_[layer]->Forward(x, plan, edge_weight);
    case GnnArch::kGcn:
      return gcn_layers_[layer]->Forward(x, plan, edge_weight);
    case GnnArch::kGat:
      return gat_layers_[layer]->Forward(x, plan, edge_weight);
  }
  return x;
}

Tensor GnnEncoder::Forward(const Tensor& x, const GnnPlan& plan,
                           const Tensor& edge_weight) const {
  CHECK_EQ(static_cast<int>(plan.layers.size()), config_.num_layers);
  CHECK_EQ(x.rows(), static_cast<int>(plan.rows.size()));
  if (edge_weight.defined()) {
    CHECK_EQ(edge_weight.rows(), static_cast<int>(plan.edges.size()));
    CHECK_EQ(edge_weight.cols(), 1);
  }
  Tensor h = x;
  for (int i = 0; i < config_.num_layers; ++i) {
    h = ApplyLayer(i, h, plan.layers[i], edge_weight);
    if (i + 1 < config_.num_layers) h = Relu(h);
  }
  return plan.order.empty() ? h : GatherRows(h, plan.order);
}

}  // namespace gp
