// Data-graph construction (Eq. 1): contextualises an input node or edge by
// sampling its neighborhood with the paper's random-walk procedure
// (Sec. IV-A1) over any GraphView backend. The sampler reads only the CSR
// rows of visited nodes, so on a CsrStore backend the resident working set
// is the sampled neighborhood, not the graph. Callers holding an in-memory
// Graph wrap it in a GraphAdapter.

#ifndef GRAPHPROMPTER_GRAPH_SAMPLER_H_
#define GRAPHPROMPTER_GRAPH_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "graph/graph_view.h"
#include "util/rng.h"

namespace gp {

// A sampled data graph G_i^D in local index space. `nodes[i]` is the source
// graph id of local node i; the input node(s) come first.
struct Subgraph {
  std::vector<int> nodes;         // original node ids, centers first
  std::vector<int> center_local;  // local indices of the input node(s)
  // Induced directed adjacency (both directions of undirected edges).
  std::vector<int> edge_src;
  std::vector<int> edge_dst;
  std::vector<int> edge_rel;
  std::vector<int> edge_ids;      // original Edge record ids

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int num_edges() const { return static_cast<int>(edge_src.size()); }
};

struct SamplerConfig {
  // l — the walk length.
  int num_hops = 1;
  // Hard cap on subgraph size; sampling stops once reached (paper's "preset
  // limit").
  int max_nodes = 30;
  // Number of walk restarts per center node.
  int num_walks = 2;
};

// The paper's sampler: starting from each center, add its neighbors, take a
// random step, add that node's neighbors (duplicates removed), repeat l
// times; stop early at the node cap.
class Sampler {
 public:
  Sampler(const GraphView* view, SamplerConfig config);

  // Samples around one node (node classification input).
  Subgraph SampleAroundNode(int node, Rng* rng) const;
  // Samples around both endpoints of an edge (edge classification input).
  Subgraph SampleAroundEdge(int edge_id, Rng* rng) const;
  // General form: centers come first; a duplicated center reuses its local
  // index.
  Subgraph SampleAroundNodes(const std::vector<int>& centers, Rng* rng) const;

 private:
  const GraphView* view_;
  SamplerConfig config_;
};

// Fills a Subgraph's edge arrays with the induced adjacency among
// `subgraph->nodes`, in each node's CSR order (exposed for testing).
void InduceEdges(const GraphView& view, Subgraph* subgraph);

// Samples one subgraph per center with a per-item RNG seeded by
// (seed, index), in parallel. The per-item seeding makes the output
// independent of the thread count and of chunk scheduling: element i is
// always sampled from Rng(mix(seed, i)).
std::vector<Subgraph> SampleBatch(const GraphView& view,
                                  const SamplerConfig& config,
                                  const std::vector<int>& centers,
                                  uint64_t seed);

}  // namespace gp

#endif  // GRAPHPROMPTER_GRAPH_SAMPLER_H_
