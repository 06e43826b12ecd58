#include "core/prompt_generator.h"

#include <cmath>
#include <cstdint>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace gp {

const char* ReconArchName(ReconArch arch) {
  switch (arch) {
    case ReconArch::kMlp:
      return "MLP";
    case ReconArch::kBilinear:
      return "bilinear";
  }
  return "?";
}

PromptGenerator::PromptGenerator(const PromptGeneratorConfig& config, Rng* rng)
    : config_(config) {
  // The reconstruction network only exists when the stage is enabled
  // (Prodigy's architecture has no reweighting module).
  if (config.use_reconstruction) {
    switch (config.recon_arch) {
      case ReconArch::kMlp:
        recon_mlp_ = std::make_unique<Mlp>(
            std::vector<int>{2 * config.gnn.in_dim, config.recon_hidden, 1},
            rng);
        RegisterModule("recon_mlp", recon_mlp_.get());
        break;
      case ReconArch::kBilinear:
        recon_bilinear_ = std::make_unique<Linear>(
            config.gnn.in_dim, config.gnn.in_dim, rng, /*use_bias=*/false);
        RegisterModule("recon_bilinear", recon_bilinear_.get());
        break;
    }
  }
  encoder_ = std::make_unique<GnnEncoder>(config.gnn, rng);
  RegisterModule("gnn_d", encoder_.get());
}

Subgraph PromptGenerator::SampleForItem(const DatasetBundle& dataset,
                                        int item, Rng* rng) const {
  const GraphAdapter view(dataset.graph);
  const Sampler sampler(&view, config_.sampler);
  return dataset.task == TaskType::kNodeClassification
             ? sampler.SampleAroundNode(item, rng)
             : sampler.SampleAroundEdge(item, rng);
}

Subgraph PromptGenerator::SampleForNode(const GraphView& view, int node,
                                        Rng* rng) const {
  return Sampler(&view, config_.sampler).SampleAroundNode(node, rng);
}

Tensor PromptGenerator::EdgeWeightsFor(const Tensor& features,
                                       const std::vector<int>& src,
                                       const std::vector<int>& dst) const {
  // Eq. 2: z_uv = MLP_phi(V(u), V(v), E(u,v)). Node features of the two
  // endpoints are concatenated; the initial edge embedding in our datasets
  // is itself derived from the endpoints, so this input covers both the
  // node- and edge-classification forms. Eq. 3: w_uv = sigmoid(z_uv).
  if (config_.recon_arch == ReconArch::kMlp) {
    const Linear& hidden = recon_mlp_->layer(0);
    const Linear& out = recon_mlp_->layer(1);
    return EdgeMlpSigmoid(features, src, dst, hidden.weight(), hidden.bias(),
                          out.weight(), out.bias());
  }
  // Bilinear variant: z_uv = x_u^T W x_v / sqrt(d).
  Tensor projected = recon_bilinear_->Forward(GatherRows(features, src));
  return Sigmoid(
      Scale(SumCols(Mul(projected, GatherRows(features, dst))),
            1.0f / std::sqrt(static_cast<float>(config_.gnn.in_dim))));
}

Tensor PromptGenerator::ReconstructEdgeWeights(const GraphView& view,
                                               const Subgraph& sg) const {
  if (sg.edge_src.empty()) return Tensor::Zeros(0, 1);
  if (!config_.use_reconstruction) {
    // Shared read-only ones column; avoids a fresh allocation per subgraph.
    return CachedOnesColumn(sg.num_edges());
  }
  GP_TRACE_SPAN("generator/reconstruct");
  return EdgeWeightsFor(view.GatherFeatureRows(sg.nodes), sg.edge_src,
                        sg.edge_dst);
}

namespace {

// Disjoint-union packing of a batch of subgraphs.
struct PackedUnion {
  std::vector<int> nodes;           // original node ids
  std::vector<int> src, dst;        // packed edge endpoints
  std::vector<int> center_rows;     // rows of centers within the union
  std::vector<int> center_segment;  // which subgraph each center belongs to
};

PackedUnion PackSubgraphs(const std::vector<Subgraph>& subgraphs) {
  size_t num_nodes = 0, num_edges = 0, num_centers = 0;
  for (const Subgraph& sg : subgraphs) {
    num_nodes += sg.nodes.size();
    num_edges += sg.edge_src.size();
    num_centers += sg.center_local.size();
  }
  PackedUnion packed;
  packed.nodes.reserve(num_nodes);
  packed.src.reserve(num_edges);
  packed.dst.reserve(num_edges);
  packed.center_rows.reserve(num_centers);
  packed.center_segment.reserve(num_centers);
  int offset = 0;
  for (size_t b = 0; b < subgraphs.size(); ++b) {
    const Subgraph& sg = subgraphs[b];
    CHECK_GT(sg.num_nodes(), 0);
    packed.nodes.insert(packed.nodes.end(), sg.nodes.begin(),
                        sg.nodes.end());
    for (int e = 0; e < sg.num_edges(); ++e) {
      packed.src.push_back(sg.edge_src[e] + offset);
      packed.dst.push_back(sg.edge_dst[e] + offset);
    }
    for (int local : sg.center_local) {
      packed.center_rows.push_back(local + offset);
      packed.center_segment.push_back(static_cast<int>(b));
    }
    offset += sg.num_nodes();
  }
  return packed;
}

// The distinct (u, v) edges of an edge list over compact node ids.
struct UniqueEdges {
  std::vector<int> src, dst;    // each unique edge's ends
  std::vector<int> occurrence;  // the unique edge of each listed edge
};

// Edges are grouped by source with a counting sort, and a stamp per
// destination marks the ones the current source already reaches.
// O(nodes + edges), in flat arrays.
UniqueEdges DedupEdges(int num_nodes, const std::vector<int>& src,
                       const std::vector<int>& dst) {
  const size_t num_edges = src.size();
  UniqueEdges unique;
  // Edges of source s are by_source[first[s] .. first[s + 1]).
  std::vector<int> first(num_nodes + 1, 0);
  for (size_t e = 0; e < num_edges; ++e) ++first[src[e] + 1];
  for (int s = 0; s < num_nodes; ++s) first[s + 1] += first[s];
  std::vector<int> by_source(num_edges);
  std::vector<int> next(first.begin(), first.end() - 1);
  for (size_t e = 0; e < num_edges; ++e) {
    by_source[next[src[e]]++] = static_cast<int>(e);
  }
  std::vector<int> stamp(num_nodes, -1);  // last source to reach each node
  std::vector<int> edge_to(num_nodes);    // its unique edge from there
  unique.occurrence.resize(num_edges);
  for (int s = 0; s < num_nodes; ++s) {
    for (int i = first[s]; i < first[s + 1]; ++i) {
      const int e = by_source[i];
      const int d = dst[e];
      if (stamp[d] != s) {
        stamp[d] = s;
        edge_to[d] = static_cast<int>(unique.src.size());
        unique.src.push_back(s);
        unique.dst.push_back(d);
      }
      unique.occurrence[e] = edge_to[d];
    }
  }
  return unique;
}

}  // namespace

Tensor PromptGenerator::EmbedSubgraphs(const GraphView& view,
                                       const std::vector<Subgraph>& subgraphs,
                                       const Tensor& feature_offset) const {
  CHECK(!subgraphs.empty());
  const PackedUnion packed = PackSubgraphs(subgraphs);
  const int num_subgraphs = static_cast<int>(subgraphs.size());
  static Counter* embedded = Telemetry().GetCounter("generator/subgraphs");
  embedded->Add(num_subgraphs);

  // The readout reads only the center rows, so GNN_D computes their
  // receptive field alone, and only its rows' features and its first
  // layer's edges are gathered and weighed. At inference every row of one
  // node holds the same features (identical gathered row, identical
  // broadcast offset), so the first layer reads one row per distinct node:
  // a packed union repeats nodes heavily, the more so when a cross-request
  // micro-batch packs many episodes over the same class pools. Under
  // autograd each row keeps its own input row, since merging would
  // reorder the gradient accumulation over repeated nodes.
  GnnPlan plan;
  {
    GP_TRACE_SPAN("generator/encode");
    const std::vector<int> no_nodes;
    plan = encoder_->Plan(static_cast<int>(packed.nodes.size()), packed.src,
                          packed.dst, packed.center_rows,
                          GradEnabled() ? no_nodes : packed.nodes);
  }
  std::vector<int> nodes;
  nodes.reserve(plan.rows.size());
  for (int r : plan.rows) nodes.push_back(packed.nodes[r]);
  Tensor features = view.GatherFeatureRows(nodes);
  if (feature_offset.defined()) {
    features = Add(features, feature_offset);  // broadcast row
  }
  Tensor edge_weight;  // undefined = unit weights
  if (config_.use_reconstruction && !plan.edges.empty()) {
    GP_TRACE_SPAN("generator/reconstruct");
    if (!GradEnabled()) {
      // Inference: the Eq. 2-3 weight of an edge is a pure function of its
      // two endpoint nodes, and the plan's edge ends are already one row
      // of `features` per node. So MLP_phi projects each node's x_u half
      // once, weighs each unique (u, v) once, and the weights are
      // scattered to every occurrence: bitwise identical, because each
      // row's result is independent of which other rows share the matrix.
      // Under autograd the per-occurrence path is kept — deduplication
      // would reorder the gradient accumulation over repeated edges.
      static Counter* recon_edges =
          Telemetry().GetCounter("generator/recon_edges");
      static Counter* recon_unique =
          Telemetry().GetCounter("generator/recon_unique_edges");
      static Counter* recon_nodes =
          Telemetry().GetCounter("generator/recon_nodes");
      const UniqueEdges unique =
          DedupEdges(features.rows(), plan.edge_src, plan.edge_dst);
      recon_edges->Add(static_cast<int64_t>(plan.edge_src.size()));
      recon_unique->Add(static_cast<int64_t>(unique.src.size()));
      recon_nodes->Add(features.rows());
      edge_weight = GatherRows(EdgeWeightsFor(features, unique.src, unique.dst),
                               unique.occurrence);
    } else {
      edge_weight = EdgeWeightsFor(features, plan.edge_src, plan.edge_dst);
    }
  }
  Tensor centers;
  {
    GP_TRACE_SPAN("generator/encode");
    centers = encoder_->Forward(features, plan, edge_weight);
  }

  // Readout: mean of each subgraph's center-node embeddings.
  return SegmentMeanRows(centers, packed.center_segment, num_subgraphs);
}

Tensor PromptGenerator::EmbedItems(const DatasetBundle& dataset,
                                   const std::vector<int>& items,
                                   Rng* rng) const {
  std::vector<Subgraph> subgraphs;
  subgraphs.reserve(items.size());
  {
    GP_TRACE_SPAN("generator/sample");
    for (int item : items) {
      subgraphs.push_back(SampleForItem(dataset, item, rng));
    }
  }
  return EmbedSubgraphs(GraphAdapter(dataset.graph), subgraphs);
}

}  // namespace gp
