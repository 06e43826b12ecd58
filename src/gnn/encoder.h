// GnnEncoder: a configurable stack of message-passing layers producing the
// node embeddings whose center-row mean is the data-graph embedding G_i of
// Eq. 4. Each call computes only the rows its caller reads (see Plan).

#ifndef GRAPHPROMPTER_GNN_ENCODER_H_
#define GRAPHPROMPTER_GNN_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "gnn/gat_conv.h"
#include "gnn/gcn_conv.h"
#include "gnn/layer_plan.h"
#include "gnn/sage_conv.h"
#include "nn/module.h"

namespace gp {

// Which convolution the encoder stacks (Fig. 4 compares kSage vs kGat).
enum class GnnArch { kSage, kGcn, kGat };

const char* GnnArchName(GnnArch arch);

struct GnnEncoderConfig {
  GnnArch arch = GnnArch::kSage;
  int in_dim = 64;
  int hidden_dim = 64;
  int out_dim = 64;
  int num_layers = 2;
};

// What one Forward call computes over a graph of packed rows and edges:
// the requested rows' receptive field. The last layer computes the
// requested rows, and each earlier layer the rows the next one reads: its
// own rows plus the sources of the edges into them.
struct GnnPlan {
  // One row per first-layer input row, ascending: every row the first
  // layer reads, or, when Plan was given node ids, each node's first one.
  std::vector<int> rows;
  std::vector<int> edges;  // edges the first layer reads, in graph order
  // The ends of `edges` as indices into `rows`.
  std::vector<int> edge_src, edge_dst;
  std::vector<GnnLayerPlan> layers;  // one per layer, first to last
  // Output row of the last layer for each requested row; empty when the
  // requested rows are ascending and distinct, which is that output.
  std::vector<int> order;
};

// Stacks `num_layers` convolutions with ReLU in between. All layers accept
// an optional edge-weight column, through which the Prompt Generator's
// reconstruction gradients flow.
class GnnEncoder : public Module {
 public:
  GnnEncoder(const GnnEncoderConfig& config, Rng* rng);

  // Plans a Forward call that returns the embeddings of `rows` (any order,
  // repeats allowed) of a graph with `num_rows` rows and the directed
  // edges src[e] -> dst[e]. Built from byte masks over the rows in
  // O(num_layers * edges). `nodes`, when given, holds each row's node id,
  // and the caller promises that rows of one node hold the same features:
  // the first layer then reads one input row per distinct node (found
  // through an open-addressing table over the ids), and plan.edge_src and
  // plan.edge_dst are those rows' compact ids. Every output stays bitwise
  // equal; gradients change accumulation order, so callers pass node ids
  // only at inference.
  GnnPlan Plan(int num_rows, const std::vector<int>& src,
               const std::vector<int>& dst, const std::vector<int>& rows,
               const std::vector<int>& nodes = {}) const;

  // Embeds the planned rows: x holds one row per plan.rows entry, and
  // edge_weight, when defined, one weight per plan.edges entry. Returns
  // (requested rows x out_dim), each row bitwise equal to the same row of
  // a run over the whole graph; under autograd every gradient is bitwise
  // equal too (DESIGN.md §9).
  Tensor Forward(const Tensor& x, const GnnPlan& plan,
                 const Tensor& edge_weight) const;

  const GnnEncoderConfig& config() const { return config_; }

 private:
  Tensor ApplyLayer(int layer, const Tensor& x, const GnnLayerPlan& plan,
                    const Tensor& edge_weight) const;

  GnnEncoderConfig config_;
  std::vector<std::unique_ptr<SageConv>> sage_layers_;
  std::vector<std::unique_ptr<GcnConv>> gcn_layers_;
  std::vector<std::unique_ptr<GatConv>> gat_layers_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GNN_ENCODER_H_
