// Stage 1 — Prompt Generator (Sec. IV-A).
//
// Contextualises each input (node or edge) by sampling an l-hop subgraph
// with the random-walk procedure (Eq. 1), reconstructs edge weights with a
// jointly-trained MLP + sigmoid (Eqs. 2-3) to suppress task-irrelevant
// structure, and aggregates the re-weighted subgraph with GNN_D into a
// single data-graph embedding G_i (Eq. 4).

#ifndef GRAPHPROMPTER_CORE_PROMPT_GENERATOR_H_
#define GRAPHPROMPTER_CORE_PROMPT_GENERATOR_H_

#include <memory>
#include <vector>

#include "data/datasets.h"
#include "gnn/encoder.h"
#include "graph/graph_view.h"
#include "graph/sampler.h"
#include "nn/mlp.h"
#include "nn/module.h"

namespace gp {

// The network computing the Eq. 2 edge logits. kMlp is the paper's
// MLP_phi; kBilinear (z_uv = x_u^T W x_v / sqrt(d)) is an instance of the
// Further-Discussion note that "the reconstruction layer can be replaced
// with networks other than just MLP".
enum class ReconArch { kMlp, kBilinear };

const char* ReconArchName(ReconArch arch);

struct PromptGeneratorConfig {
  GnnEncoderConfig gnn;        // GNN_D architecture (Fig. 4 swaps this)
  SamplerConfig sampler;       // l-hop / node-cap / walk settings
  int recon_hidden = 64;       // hidden width of MLP_phi (two-layer, Sec. V-F)
  ReconArch recon_arch = ReconArch::kMlp;
  bool use_reconstruction = true;  // ablation "w/o Generator" sets false
};

// Embeds batches of dataset items into data-graph embeddings. All
// subgraphs of one call are packed into a disjoint union so the GNN and
// the reconstruction MLP run once per batch. Every graph read goes through
// a GraphView; the DatasetBundle entry points wrap the bundle's Graph in a
// GraphAdapter.
class PromptGenerator : public Module {
 public:
  PromptGenerator(const PromptGeneratorConfig& config, Rng* rng);

  // Samples a data graph for one dataset item (node id or edge id).
  Subgraph SampleForItem(const DatasetBundle& dataset, int item,
                         Rng* rng) const;
  // Samples a data graph around a bare node of `view` (used by the
  // Neighbor-Matching pretraining task).
  Subgraph SampleForNode(const GraphView& view, int node, Rng* rng) const;

  // Embeds pre-sampled subgraphs of `view`: returns (B x out_dim).
  // `feature_offset`, when defined, is a (1 x in_dim) row added to every
  // node feature before encoding — the hook used by the prompt-token
  // baseline (ProG) to inject its learnable prompt vector.
  Tensor EmbedSubgraphs(const GraphView& view,
                        const std::vector<Subgraph>& subgraphs,
                        const Tensor& feature_offset = Tensor()) const;

  // Convenience: sample + embed dataset items. (num_items x out_dim).
  Tensor EmbedItems(const DatasetBundle& dataset,
                    const std::vector<int>& items, Rng* rng) const;

  // Reconstructed edge weights for a single subgraph (E x 1); exposes the
  // Eq. 3 weights for inspection/tests. All ones, and no feature row read,
  // when reconstruction is disabled.
  Tensor ReconstructEdgeWeights(const GraphView& view,
                                const Subgraph& subgraph) const;

  int out_dim() const { return config_.gnn.out_dim; }
  const PromptGeneratorConfig& config() const { return config_; }

 private:
  // Computes Eq. 2-3 weights for a packed edge list over `features`.
  Tensor EdgeWeightsFor(const Tensor& features, const std::vector<int>& src,
                        const std::vector<int>& dst) const;

  PromptGeneratorConfig config_;
  std::unique_ptr<Mlp> recon_mlp_;      // MLP_phi: [x_u || x_v] -> logit
  std::unique_ptr<Linear> recon_bilinear_;  // W of the bilinear variant
  std::unique_ptr<GnnEncoder> encoder_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_PROMPT_GENERATOR_H_
