#include "graph/sampler.h"

#include <unordered_map>
#include <unordered_set>

#include "util/logging.h"
#include "util/parallel.h"

namespace gp {

void InduceEdges(const GraphView& view, Subgraph* subgraph) {
  std::unordered_map<int, int> local_of;
  local_of.reserve(subgraph->nodes.size());
  for (size_t i = 0; i < subgraph->nodes.size(); ++i) {
    local_of[subgraph->nodes[i]] = static_cast<int>(i);
  }
  for (size_t i = 0; i < subgraph->nodes.size(); ++i) {
    const int u = subgraph->nodes[i];
    const AdjEntry* adj = view.NeighborsBegin(u);
    const int deg = view.Degree(u);
    for (int k = 0; k < deg; ++k) {
      auto it = local_of.find(adj[k].neighbor);
      if (it == local_of.end()) continue;
      subgraph->edge_src.push_back(static_cast<int>(i));
      subgraph->edge_dst.push_back(it->second);
      subgraph->edge_rel.push_back(adj[k].relation);
      subgraph->edge_ids.push_back(adj[k].edge_id);
    }
  }
}

Sampler::Sampler(const GraphView* view, SamplerConfig config)
    : view_(view), config_(config) {
  CHECK(view != nullptr);
  CHECK_GE(config.num_hops, 0);
  CHECK_GE(config.max_nodes, 1);
  CHECK_GE(config.num_walks, 1);
}

Subgraph Sampler::SampleAroundNode(int node, Rng* rng) const {
  return SampleAroundNodes({node}, rng);
}

Subgraph Sampler::SampleAroundEdge(int edge_id, Rng* rng) const {
  const Edge e = view_->EdgeRecord(edge_id);
  return SampleAroundNodes({e.src, e.dst}, rng);
}

Subgraph Sampler::SampleAroundNodes(const std::vector<int>& centers,
                                    Rng* rng) const {
  CHECK(rng != nullptr);
  Subgraph sg;
  std::unordered_set<int> seen;
  for (int c : centers) {
    if (seen.insert(c).second) {
      sg.center_local.push_back(static_cast<int>(sg.nodes.size()));
      sg.nodes.push_back(c);
    } else {
      // Duplicate center (self-loop edge): reuse the existing local index.
      for (size_t i = 0; i < sg.nodes.size(); ++i) {
        if (sg.nodes[i] == c) {
          sg.center_local.push_back(static_cast<int>(i));
          break;
        }
      }
    }
  }

  // Adds the neighbors of `u` (deduplicated) until the cap is hit.
  auto add_neighbors = [&](int u) {
    const AdjEntry* adj = view_->NeighborsBegin(u);
    const int deg = view_->Degree(u);
    for (int k = 0; k < deg; ++k) {
      if (static_cast<int>(sg.nodes.size()) >= config_.max_nodes) return;
      const int v = adj[k].neighbor;
      if (seen.insert(v).second) sg.nodes.push_back(v);
    }
  };

  std::vector<int> starts;
  for (int local : sg.center_local) starts.push_back(sg.nodes[local]);
  for (int start : starts) {
    for (int walk = 0; walk < config_.num_walks; ++walk) {
      int current = start;
      add_neighbors(current);
      // "Randomly choose a direction to move to the next node … repeated l
      // times; terminate if the subgraph reaches the preset limit."
      for (int step = 0; step < config_.num_hops; ++step) {
        if (static_cast<int>(sg.nodes.size()) >= config_.max_nodes) break;
        const int deg = view_->Degree(current);
        if (deg == 0) break;
        const AdjEntry* adj = view_->NeighborsBegin(current);
        current = adj[rng->UniformInt(deg)].neighbor;
        add_neighbors(current);
      }
      if (static_cast<int>(sg.nodes.size()) >= config_.max_nodes) break;
    }
  }
  InduceEdges(*view_, &sg);
  return sg;
}

std::vector<Subgraph> SampleBatch(const GraphView& view,
                                  const SamplerConfig& config,
                                  const std::vector<int>& centers,
                                  uint64_t seed) {
  Sampler sampler(&view, config);
  std::vector<Subgraph> out(centers.size());
  ParallelFor(0, static_cast<int64_t>(centers.size()), /*grain=*/8,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  // Per-item stream: output depends only on (seed, i).
                  Rng rng(seed ^
                          (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1)));
                  out[i] = sampler.SampleAroundNode(centers[i], &rng);
                }
              });
  return out;
}

}  // namespace gp
