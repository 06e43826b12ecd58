// GraphView: the read-only seam between graph consumers (the sampler, the
// prompt generator, episodic pretraining) and graph storage backends.
//
// Three backends implement it:
//   - GraphAdapter       over the in-memory `Graph`,
//   - CsrGraph           a compact flat CSR copy (graph/store/csr_graph.h),
//   - CsrStore           memory-mapped on-disk shards (graph/store/csr_store.h).
//
// The contract (DESIGN.md §12) is bitwise equivalence: for the same node,
// every backend exposes the identical adjacency sequence (neighbor,
// relation, edge_id — in GraphBuilder insertion order), the identical
// feature row bytes, and the identical label, so any deterministic
// computation over a view produces identical output regardless of backend.
//
// NeighborsBegin returns a pointer to a *contiguous* AdjEntry run of
// length Degree(node): one virtual call per visited node, not per
// neighbor, which keeps sampling through the seam as fast as walking a
// Graph directly. Pointers returned by NeighborsBegin / FeatureRow are
// valid for the lifetime of the view object (for CsrStore, as long as its
// mappings are alive).

#ifndef GRAPHPROMPTER_GRAPH_GRAPH_VIEW_H_
#define GRAPHPROMPTER_GRAPH_GRAPH_VIEW_H_

#include <vector>

#include "graph/graph.h"
#include "tensor/tensor.h"

namespace gp {

class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual int num_nodes() const = 0;
  // Number of original Edge records (one per undirected edge).
  virtual int num_edges() const = 0;
  virtual int num_relations() const = 0;
  virtual int feature_dim() const = 0;
  virtual int num_node_classes() const = 0;

  // CSR out-degree (both directions of an undirected edge).
  virtual int Degree(int node) const = 0;
  // Contiguous adjacency run of length Degree(node).
  virtual const AdjEntry* NeighborsBegin(int node) const = 0;
  // Feature row of length feature_dim(); nullptr when featureless.
  virtual const float* FeatureRow(int node) const = 0;
  // Class label, -1 when unlabeled.
  virtual int NodeLabel(int node) const = 0;
  // Original edge record for `edge_id` (as Graph::edge).
  virtual Edge EdgeRecord(int edge_id) const = 0;

  // Packs the feature rows of `nodes` (in order) into a dense Tensor with
  // no autograd history. Rows are copied bytewise, so equivalent backends
  // give bit-identical tensors. The default copies each FeatureRow into a
  // pooled buffer.
  virtual Tensor GatherFeatureRows(const std::vector<int>& nodes) const;
};

// GraphView over an in-memory Graph. Non-owning: the Graph must outlive
// the adapter.
class GraphAdapter final : public GraphView {
 public:
  explicit GraphAdapter(const Graph& graph) : graph_(graph) {}

  int num_nodes() const override { return graph_.num_nodes(); }
  int num_edges() const override { return graph_.num_edges(); }
  int num_relations() const override { return graph_.num_relations(); }
  int feature_dim() const override { return graph_.feature_dim(); }
  int num_node_classes() const override { return graph_.num_node_classes(); }

  int Degree(int node) const override { return graph_.Degree(node); }
  const AdjEntry* NeighborsBegin(int node) const override {
    return graph_.NeighborsBegin(node);
  }
  const float* FeatureRow(int node) const override {
    if (graph_.feature_dim() == 0) return nullptr;
    return graph_.node_features().data().data() +
           static_cast<size_t>(node) * graph_.feature_dim();
  }
  int NodeLabel(int node) const override { return graph_.node_label(node); }
  Edge EdgeRecord(int edge_id) const override { return graph_.edge(edge_id); }
  // The GatherRows op over the graph's feature tensor, the gather the
  // in-memory path has always used: the row-copy default measured about
  // 10% more peak RSS on the serving benchmark (DESIGN.md §12).
  Tensor GatherFeatureRows(const std::vector<int>& nodes) const override;

  const Graph& graph() const { return graph_; }

 private:
  const Graph& graph_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_GRAPH_GRAPH_VIEW_H_
