#include "core/prompt_generator.h"

#include <cmath>
#include <unordered_map>

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
  // node- and edge-classification forms.
  Tensor logits;
  if (config_.recon_arch == ReconArch::kMlp) {
    Tensor endpoint_pairs =
        ConcatCols(GatherRows(features, src), GatherRows(features, dst));
    logits = recon_mlp_->Forward(endpoint_pairs);
  } else {
    // Bilinear variant: z_uv = x_u^T W x_v / sqrt(d).
    Tensor projected = recon_bilinear_->Forward(GatherRows(features, src));
    logits = Scale(
        SumCols(Mul(projected, GatherRows(features, dst))),
        1.0f / std::sqrt(static_cast<float>(config_.gnn.in_dim)));
  }
  // Eq. 3: w_uv = sigmoid(z_uv).
  return Sigmoid(logits);
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
  PackedUnion packed;
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
  // layer's edges are gathered and weighed.
  GnnPlan plan;
  {
    GP_TRACE_SPAN("generator/encode");
    plan = encoder_->Plan(static_cast<int>(packed.nodes.size()), packed.src,
                          packed.dst, packed.center_rows);
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
      // two endpoint node ids (identical gathered feature rows, identical
      // broadcast offset), and a packed union repeats the same graph edge
      // across overlapping subgraphs — heavily so when a cross-request
      // micro-batch packs many episodes over the same class pools. Run
      // MLP_phi once per unique (u, v) and scatter to every occurrence:
      // bitwise identical, because Linear/Mlp row results are independent
      // of which other rows share the matrix. Under autograd the
      // per-occurrence path is kept — deduplication would reorder the
      // gradient accumulation over repeated edges.
      static Counter* recon_edges =
          Telemetry().GetCounter("generator/recon_edges");
      static Counter* recon_unique =
          Telemetry().GetCounter("generator/recon_unique_edges");
      const size_t num_edges = plan.edges.size();
      std::vector<int> rep_src, rep_dst;  // first-occurrence feature rows
      std::vector<int> occurrence(num_edges);
      std::unordered_map<uint64_t, int> unique_index;
      unique_index.reserve(num_edges * 2);
      for (size_t e = 0; e < num_edges; ++e) {
        const uint64_t key =
            (static_cast<uint64_t>(
                 static_cast<uint32_t>(nodes[plan.edge_src[e]]))
             << 32) |
            static_cast<uint32_t>(nodes[plan.edge_dst[e]]);
        const auto [it, inserted] =
            unique_index.emplace(key, static_cast<int>(rep_src.size()));
        if (inserted) {
          rep_src.push_back(plan.edge_src[e]);
          rep_dst.push_back(plan.edge_dst[e]);
        }
        occurrence[e] = it->second;
      }
      recon_edges->Add(static_cast<int64_t>(num_edges));
      recon_unique->Add(static_cast<int64_t>(rep_src.size()));
      Tensor unique_weights = EdgeWeightsFor(features, rep_src, rep_dst);
      edge_weight = rep_src.size() == num_edges
                        ? std::move(unique_weights)
                        : GatherRows(unique_weights, occurrence);
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
