// Backend-equivalence property tests for the sampler over the out-of-core
// stores: the same walk over GraphAdapter, CsrGraph and CsrStore must agree
// bitwise (same RNG consumption, same dedup/cap decisions, same induced-edge
// enumeration) for node, edge and multi-center inputs, and SampleBatch must
// be invariant to the worker thread count.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/graph_view.h"
#include "graph/sampler.h"
#include "graph/store/csr_graph.h"
#include "graph/store/csr_store.h"
#include "graph/store/shard_writer.h"
#include "util/parallel.h"

namespace gp {
namespace {

Graph TestGraph() {
  NodeGraphConfig config;
  config.num_nodes = 200;
  config.num_classes = 4;
  config.feature_dim = 8;
  return MakeNodeClassificationGraph(config);
}

SamplerConfig WalkConfig() {
  SamplerConfig config;
  config.num_hops = 2;
  config.max_nodes = 25;
  config.num_walks = 2;
  return config;
}

void ExpectSameSubgraph(const Subgraph& a, const Subgraph& b,
                        const std::string& what) {
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.center_local, b.center_local) << what;
  EXPECT_EQ(a.edge_src, b.edge_src) << what;
  EXPECT_EQ(a.edge_dst, b.edge_dst) << what;
  EXPECT_EQ(a.edge_rel, b.edge_rel) << what;
  EXPECT_EQ(a.edge_ids, b.edge_ids) << what;
}

// The same walk over all three backends must agree bitwise — the
// load-bearing property for the scale benchmark's embedding-CRC check.
TEST(StreamSamplerTest, IdenticalAcrossBackends) {
  const Graph graph = TestGraph();
  const std::string dir = ::testing::TempDir() + "/sampler_backends";
  std::filesystem::remove_all(dir);
  ShardWriterOptions options;
  options.nodes_per_shard = 64;
  options.edges_per_shard = 100;
  ASSERT_TRUE(WriteCsrShards(graph, dir, options).ok());
  auto store_or = CsrStore::Open(dir);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();

  const GraphAdapter adapter(graph);
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  const CsrStore& store = **store_or;

  const Sampler on_adapter(&adapter, WalkConfig());
  const Sampler on_csr(&csr, WalkConfig());
  const Sampler on_store(&store, WalkConfig());
  for (int node = 0; node < graph.num_nodes(); node += 11) {
    Rng rng_a(node), rng_b(node), rng_c(node);
    const Subgraph a = on_adapter.SampleAroundNode(node, &rng_a);
    const Subgraph b = on_csr.SampleAroundNode(node, &rng_b);
    const Subgraph c = on_store.SampleAroundNode(node, &rng_c);
    ExpectSameSubgraph(b, a, "csr node " + std::to_string(node));
    ExpectSameSubgraph(c, a, "store node " + std::to_string(node));
  }
  for (int e = 0; e < graph.num_edges(); e += 13) {
    Rng rng_a(7 + e), rng_b(7 + e), rng_c(7 + e);
    const Subgraph a = on_adapter.SampleAroundEdge(e, &rng_a);
    const Subgraph b = on_csr.SampleAroundEdge(e, &rng_b);
    const Subgraph c = on_store.SampleAroundEdge(e, &rng_c);
    ExpectSameSubgraph(b, a, "csr edge " + std::to_string(e));
    ExpectSameSubgraph(c, a, "store edge " + std::to_string(e));
  }
  const std::vector<int> centers = {5, 9, 5, 120};  // duplicate center too
  Rng rng_a(31), rng_b(31), rng_c(31);
  const Subgraph a = on_adapter.SampleAroundNodes(centers, &rng_a);
  ExpectSameSubgraph(on_csr.SampleAroundNodes(centers, &rng_b), a,
                     "csr multi-center");
  ExpectSameSubgraph(on_store.SampleAroundNodes(centers, &rng_c), a,
                     "store multi-center");
  std::filesystem::remove_all(dir);
}

// SampleBatch seeds each element from (seed, index), so the result must
// not depend on the thread count or chunking — and must equal a serial
// per-item resample.
TEST(StreamSamplerTest, SampleBatchIsThreadCountInvariant) {
  const Graph graph = TestGraph();
  const GraphAdapter view(graph);
  std::vector<int> centers;
  for (int i = 0; i < 64; ++i) centers.push_back((i * 17) % graph.num_nodes());
  const uint64_t seed = 2024;

  const int original_threads = NumThreads();
  SetNumThreads(1);
  const std::vector<Subgraph> serial =
      SampleBatch(view, WalkConfig(), centers, seed);
  SetNumThreads(4);
  const std::vector<Subgraph> parallel =
      SampleBatch(view, WalkConfig(), centers, seed);
  SetNumThreads(original_threads);

  ASSERT_EQ(serial.size(), parallel.size());
  const Sampler sampler(&view, WalkConfig());
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameSubgraph(parallel[i], serial[i],
                       "threads item " + std::to_string(i));
    Rng rng(seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i + 1)));
    ExpectSameSubgraph(serial[i],
                       sampler.SampleAroundNode(centers[i], &rng),
                       "per-item seed " + std::to_string(i));
  }
}

}  // namespace
}  // namespace gp
