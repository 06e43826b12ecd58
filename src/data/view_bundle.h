// Episode materialization for out-of-core graphs.
//
// EvaluateInContext and the episodic pretraining loop consume a
// DatasetBundle whose Graph lives in RAM. For graphs served through a
// GraphView (CsrStore shards at millions of nodes), MaterializeViewBundle
// builds a bounded working set instead: it samples a class-balanced set of
// seed items, streams their ego-nets off the view, takes the union of the
// visited nodes plus every edge with both endpoints inside it, and rebuilds
// that induced region as a normal in-memory DatasetBundle. The unchanged
// evaluation stack then runs on it — PRODIGY-style episode subsampling,
// with memory proportional to (items x ego-net size), never to the graph.

#ifndef GRAPHPROMPTER_DATA_VIEW_BUNDLE_H_
#define GRAPHPROMPTER_DATA_VIEW_BUNDLE_H_

#include <cstdint>
#include <string>

#include "data/datasets.h"
#include "graph/graph_view.h"
#include "graph/sampler.h"
#include "util/status.h"

namespace gp {

struct ViewBundleConfig {
  TaskType task = TaskType::kNodeClassification;
  // Seed items sampled per class (node task) or per relation (edge task).
  int items_per_class = 12;
  // Ego-net sampling around each seed item; max_nodes bounds the union.
  SamplerConfig sampler{/*num_hops=*/2, /*max_nodes=*/40, /*num_walks=*/2};
  double train_fraction = 0.6;
  uint64_t seed = 17;
};

// Builds an in-memory DatasetBundle from the induced region around a
// deterministic class-balanced sample of items of `view`. The materialized
// graph preserves global adjacency order among kept edges, node labels,
// relations, and feature bytes; node/edge ids are compacted.
StatusOr<DatasetBundle> MaterializeViewBundle(const GraphView& view,
                                              const std::string& name,
                                              const ViewBundleConfig& config);

}  // namespace gp

#endif  // GRAPHPROMPTER_DATA_VIEW_BUNDLE_H_
