#include "data/view_bundle.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/builder.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace gp {

StatusOr<DatasetBundle> MaterializeViewBundle(const GraphView& view,
                                              const std::string& name,
                                              const ViewBundleConfig& config) {
  GP_TRACE_SPAN("view_bundle/materialize");
  if (view.num_nodes() <= 0) {
    return InvalidArgumentError("cannot materialize an empty view");
  }
  if (config.items_per_class < 1) {
    return InvalidArgumentError("items_per_class must be >= 1");
  }
  const bool node_task = config.task == TaskType::kNodeClassification;
  const int num_classes =
      node_task ? view.num_node_classes() : view.num_relations();
  if (num_classes < 1) {
    return InvalidArgumentError("view has no classes for task " +
                                std::string(TaskTypeName(config.task)));
  }
  if (!node_task && view.num_edges() == 0) {
    return InvalidArgumentError("edge task on an edgeless view");
  }

  // Class-balanced seed items by rejection sampling; deterministic in
  // config.seed. Classes the budget cannot fill contribute fewer seeds
  // (they simply occupy less of the materialized region).
  Rng rng(config.seed);
  std::vector<int> items;
  const int64_t budget_per_class =
      64LL * config.items_per_class * num_classes;
  for (int cls = 0; cls < num_classes; ++cls) {
    std::unordered_set<int> chosen;
    int64_t budget = budget_per_class;
    while (static_cast<int>(chosen.size()) < config.items_per_class &&
           budget-- > 0) {
      int item;
      int label;
      if (node_task) {
        item = static_cast<int>(rng.UniformInt(view.num_nodes()));
        label = view.NodeLabel(item);
      } else {
        item = static_cast<int>(rng.UniformInt(view.num_edges()));
        label = view.EdgeRecord(item).relation;
      }
      if (label != cls) continue;
      if (chosen.insert(item).second) items.push_back(item);
    }
  }
  if (items.empty()) {
    return InvalidArgumentError("no labeled items found to materialize");
  }

  // Union of the seed items' ego-nets: the only rows of the view this
  // function ever touches.
  const Sampler sampler(&view, config.sampler);
  std::unordered_set<int> union_set;
  for (int item : items) {
    const Subgraph sg = node_task ? sampler.SampleAroundNode(item, &rng)
                                  : sampler.SampleAroundEdge(item, &rng);
    union_set.insert(sg.nodes.begin(), sg.nodes.end());
  }
  std::vector<int> union_nodes(union_set.begin(), union_set.end());
  std::sort(union_nodes.begin(), union_nodes.end());

  std::unordered_map<int, int> local_of;
  local_of.reserve(union_nodes.size());
  for (size_t i = 0; i < union_nodes.size(); ++i) {
    local_of[union_nodes[i]] = static_cast<int>(i);
  }

  // Every edge record with both endpoints inside the union, deduplicated
  // by id and replayed in ascending id order so the rebuilt adjacency
  // keeps the global insertion order among surviving edges.
  std::vector<int> kept_edges;
  {
    std::unordered_set<int> seen_edges;
    for (int u : union_nodes) {
      const AdjEntry* adj = view.NeighborsBegin(u);
      const int deg = view.Degree(u);
      for (int k = 0; k < deg; ++k) {
        if (local_of.find(adj[k].neighbor) == local_of.end()) continue;
        if (seen_edges.insert(adj[k].edge_id).second) {
          kept_edges.push_back(adj[k].edge_id);
        }
      }
    }
    std::sort(kept_edges.begin(), kept_edges.end());
  }

  GraphBuilder builder(view.num_relations());
  for (int u : union_nodes) builder.AddNode(view.NodeLabel(u));
  for (int edge_id : kept_edges) {
    const Edge e = view.EdgeRecord(edge_id);
    builder.AddEdge(local_of.at(e.src), local_of.at(e.dst), e.relation,
                    /*undirected=*/true);
  }
  if (view.feature_dim() > 0) {
    builder.SetNodeFeatures(view.GatherFeatureRows(union_nodes));
  }
  return MakeBundleFromGraph(name, config.task, builder.Build(),
                             config.train_fraction, config.seed);
}

}  // namespace gp
