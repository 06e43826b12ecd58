// Properties of the random-walk sampler (Eq. 1): centers come first, nodes
// are unique, the node cap holds, induced edges stay inside the subgraph,
// and a seed fixes the output. Agreement across the store backends lives
// in stream_sampler_test.cc.

#include "graph/sampler.h"

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"

namespace gp {
namespace {

// A path graph 0-1-2-3-4-5 plus a hub node 6 connected to 0.
Graph MakePath() {
  GraphBuilder builder;
  for (int i = 0; i < 7; ++i) builder.AddNode();
  for (int i = 0; i + 1 < 6; ++i) builder.AddEdge(i, i + 1);
  builder.AddEdge(6, 0);
  return builder.Build();
}

// A star: center 0, leaves 1..10.
Graph MakeStar(int leaves = 10) {
  GraphBuilder builder;
  for (int i = 0; i <= leaves; ++i) builder.AddNode();
  for (int i = 1; i <= leaves; ++i) builder.AddEdge(0, i);
  return builder.Build();
}

TEST(SamplerTest, CenterAlwaysFirst) {
  const Graph g = MakePath();
  const GraphAdapter view(g);
  SamplerConfig config;
  config.num_hops = 2;
  const Sampler sampler(&view, config);
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    Subgraph sg = sampler.SampleAroundNode(3, &rng);
    EXPECT_EQ(sg.nodes[0], 3);
    EXPECT_EQ(sg.center_local, (std::vector<int>{0}));
  }
}

TEST(SamplerTest, NodesAreUnique) {
  const Graph g = MakeStar(8);
  const GraphAdapter view(g);
  SamplerConfig config;
  config.num_hops = 3;
  const Sampler sampler(&view, config);
  Rng rng(9);
  Subgraph sg = sampler.SampleAroundNode(0, &rng);
  std::set<int> unique(sg.nodes.begin(), sg.nodes.end());
  EXPECT_EQ(unique.size(), sg.nodes.size());
}

TEST(SamplerTest, RespectsCap) {
  const Graph g = MakeStar(50);
  const GraphAdapter view(g);
  SamplerConfig config;
  config.num_hops = 3;
  config.max_nodes = 7;
  const Sampler sampler(&view, config);
  Rng rng(10);
  Subgraph sg = sampler.SampleAroundNode(0, &rng);
  EXPECT_LE(sg.num_nodes(), 7);
  EXPECT_EQ(sg.nodes[0], 0);  // center retained
}

TEST(SamplerTest, CoversOneHopNeighborsOfCenter) {
  // With no cap pressure, the first step adds all neighbors of the center.
  const Graph g = MakePath();
  const GraphAdapter view(g);
  SamplerConfig config;
  config.num_hops = 1;
  config.max_nodes = 100;
  const Sampler sampler(&view, config);
  Rng rng(11);
  Subgraph sg = sampler.SampleAroundNode(2, &rng);
  std::set<int> nodes(sg.nodes.begin(), sg.nodes.end());
  EXPECT_TRUE(nodes.count(1));
  EXPECT_TRUE(nodes.count(3));
}

TEST(SamplerTest, EdgeInputGetsTwoCenters) {
  const Graph g = MakePath();
  const GraphAdapter view(g);
  const Sampler sampler(&view, SamplerConfig());
  Rng rng(4);
  Subgraph sg = sampler.SampleAroundEdge(2, &rng);  // edge 2-3
  ASSERT_EQ(sg.center_local.size(), 2u);
  EXPECT_EQ(sg.nodes[sg.center_local[0]], 2);
  EXPECT_EQ(sg.nodes[sg.center_local[1]], 3);
}

TEST(SamplerTest, SelfLoopEdgeCenterDeduplicated) {
  GraphBuilder builder;
  builder.AddNode();
  builder.AddNode();
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  const GraphAdapter view(g);
  const Sampler sampler(&view, SamplerConfig());
  Rng rng(12);
  Subgraph sg = sampler.SampleAroundEdge(0, &rng);  // self loop (0,0)
  ASSERT_EQ(sg.center_local.size(), 2u);
  EXPECT_EQ(sg.center_local[0], sg.center_local[1]);
}

TEST(SamplerTest, InducedEdgesAreWithinSubgraph) {
  const Graph g = MakePath();
  const GraphAdapter view(g);
  SamplerConfig config;
  config.num_hops = 2;
  const Sampler sampler(&view, config);
  Rng rng(5);
  Subgraph sg = sampler.SampleAroundNode(3, &rng);
  ASSERT_GT(sg.num_edges(), 0);
  for (int e = 0; e < sg.num_edges(); ++e) {
    EXPECT_GE(sg.edge_src[e], 0);
    EXPECT_LT(sg.edge_src[e], sg.num_nodes());
    EXPECT_GE(sg.edge_dst[e], 0);
    EXPECT_LT(sg.edge_dst[e], sg.num_nodes());
  }
}

TEST(SamplerTest, InducedEdgesComeInBothDirections) {
  const Graph g = MakePath();
  const GraphAdapter view(g);
  const Sampler sampler(&view, SamplerConfig());
  Rng rng(6);
  Subgraph sg = sampler.SampleAroundNode(1, &rng);
  // For every directed (u, v) there is (v, u).
  std::set<std::pair<int, int>> pairs;
  for (int e = 0; e < sg.num_edges(); ++e) {
    pairs.insert({sg.edge_src[e], sg.edge_dst[e]});
  }
  ASSERT_FALSE(pairs.empty());
  for (const auto& [u, v] : pairs) {
    EXPECT_TRUE(pairs.count({v, u})) << u << "->" << v;
  }
}

TEST(SamplerTest, IsolatedNodeYieldsSingleton) {
  GraphBuilder builder;
  builder.AddNode();
  const Graph g = builder.Build();
  const GraphAdapter view(g);
  const Sampler sampler(&view, SamplerConfig());
  Rng rng(7);
  Subgraph sg = sampler.SampleAroundNode(0, &rng);
  EXPECT_EQ(sg.num_nodes(), 1);
  EXPECT_EQ(sg.num_edges(), 0);
}

TEST(SamplerTest, DeterministicGivenSeed) {
  const Graph g = MakeStar(20);
  const GraphAdapter view(g);
  SamplerConfig config;
  config.num_hops = 2;
  config.max_nodes = 10;
  const Sampler sampler(&view, config);
  Rng rng_a(13), rng_b(13);
  Subgraph a = sampler.SampleAroundNode(0, &rng_a);
  Subgraph b = sampler.SampleAroundNode(0, &rng_b);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edge_src, b.edge_src);
}

TEST(InduceEdgesTest, RelationAndIdPreserved) {
  GraphBuilder builder(/*num_relations=*/3);
  builder.AddNode();
  builder.AddNode();
  builder.AddEdge(0, 1, 2);
  const Graph g = builder.Build();
  Subgraph sg;
  sg.nodes = {0, 1};
  sg.center_local = {0};
  InduceEdges(GraphAdapter(g), &sg);
  ASSERT_EQ(sg.num_edges(), 2);  // both directions
  EXPECT_EQ(sg.edge_rel[0], 2);
  EXPECT_EQ(sg.edge_ids[0], 0);
}

}  // namespace
}  // namespace gp
