// Backend-equivalence and corruption-taxonomy tests for the out-of-core
// CSR store: CsrGraph (flat copy), shard round-trips through ShardWriter,
// and CsrStore (mmap) must expose bitwise-identical adjacency, labels,
// features, and edge records to the source Graph; damaged shard
// directories must surface as typed Status errors, never as garbage reads.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/graph_view.h"
#include "graph/store/csr_graph.h"
#include "graph/store/csr_store.h"
#include "graph/store/shard_writer.h"
#include "util/checksum.h"

namespace gp {
namespace {

std::string TempDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Graph TestGraph(int num_nodes = 300) {
  NodeGraphConfig config;
  config.num_nodes = num_nodes;
  config.num_classes = 5;
  config.feature_dim = 12;
  return MakeNodeClassificationGraph(config);
}

// Exercises multi-shard layouts even on small graphs.
ShardWriterOptions SmallShards() {
  ShardWriterOptions options;
  options.nodes_per_shard = 64;
  options.edges_per_shard = 100;
  return options;
}

// Asserts the full GraphView contract: every accessor of `view` agrees
// with the source graph, including the byte-exact adjacency runs.
void ExpectViewMatchesGraph(const GraphView& view, const Graph& graph) {
  ASSERT_EQ(view.num_nodes(), graph.num_nodes());
  ASSERT_EQ(view.num_edges(), graph.num_edges());
  EXPECT_EQ(view.num_relations(), graph.num_relations());
  EXPECT_EQ(view.feature_dim(), graph.feature_dim());
  EXPECT_EQ(view.num_node_classes(), graph.num_node_classes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_EQ(view.Degree(v), graph.Degree(v)) << "node " << v;
    const AdjEntry* expect = graph.NeighborsBegin(v);
    const AdjEntry* got = view.NeighborsBegin(v);
    ASSERT_EQ(std::memcmp(got, expect,
                          static_cast<size_t>(graph.Degree(v)) *
                              sizeof(AdjEntry)),
              0)
        << "adjacency of node " << v;
    EXPECT_EQ(view.NodeLabel(v), graph.node_label(v));
    const float* row = view.FeatureRow(v);
    const float* expect_row = graph.node_features().data().data() +
                              static_cast<size_t>(v) * graph.feature_dim();
    ASSERT_EQ(std::memcmp(row, expect_row,
                          static_cast<size_t>(graph.feature_dim()) *
                              sizeof(float)),
              0)
        << "features of node " << v;
  }
  for (int e = 0; e < graph.num_edges(); ++e) {
    const Edge got = view.EdgeRecord(e);
    const Edge expect = graph.edge(e);
    ASSERT_EQ(got.src, expect.src);
    ASSERT_EQ(got.dst, expect.dst);
    ASSERT_EQ(got.relation, expect.relation);
  }
}

TEST(CsrGraphTest, FromGraphMatchesBitwise) {
  const Graph graph = TestGraph();
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  ExpectViewMatchesGraph(csr, graph);
}

TEST(CsrGraphTest, ToGraphRoundTripsAdjacency) {
  const Graph graph = TestGraph();
  const Graph rebuilt = CsrGraph::FromGraph(graph).ToGraph();
  ExpectViewMatchesGraph(GraphAdapter(rebuilt), graph);
}

// The row-copy default (CsrGraph) and the adapter's tensor gather must
// both return the graph's feature rows bytewise.
TEST(CsrGraphTest, GatherFeatureRowsMatchesTensorGather) {
  const Graph graph = TestGraph(50);
  const GraphAdapter adapter(graph);
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  const std::vector<int> rows = {3, 17, 3, 49, 0};
  for (const GraphView* view : {static_cast<const GraphView*>(&adapter),
                                static_cast<const GraphView*>(&csr)}) {
    const Tensor gathered = view->GatherFeatureRows(rows);
    ASSERT_EQ(gathered.rows(), 5);
    ASSERT_EQ(gathered.cols(), graph.feature_dim());
    for (size_t i = 0; i < rows.size(); ++i) {
      const float* expect = graph.node_features().data().data() +
                            static_cast<size_t>(rows[i]) * graph.feature_dim();
      EXPECT_EQ(std::memcmp(gathered.data().data() +
                                i * static_cast<size_t>(graph.feature_dim()),
                            expect,
                            static_cast<size_t>(graph.feature_dim()) *
                                sizeof(float)),
                0);
    }
  }
}

TEST(CsrStoreTest, ShardRoundTripMatchesGraphBitwise) {
  const Graph graph = TestGraph();
  const std::string dir = TempDir("store_roundtrip");
  ASSERT_TRUE(WriteCsrShards(graph, dir, SmallShards()).ok());

  auto meta_or = ReadShardMeta(dir);
  ASSERT_TRUE(meta_or.ok()) << meta_or.status().ToString();
  EXPECT_EQ(meta_or->num_nodes, graph.num_nodes());
  EXPECT_EQ(meta_or->num_edge_records, graph.num_edges());
  EXPECT_GT(meta_or->num_node_shards, 1);  // options force multiple shards
  EXPECT_GT(meta_or->num_edge_shards, 1);

  auto store_or = CsrStore::Open(dir);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  ExpectViewMatchesGraph(**store_or, graph);

  auto flat_or = ReadCsrShards(dir);
  ASSERT_TRUE(flat_or.ok()) << flat_or.status().ToString();
  ExpectViewMatchesGraph(*flat_or, graph);

  std::filesystem::remove_all(dir);
}

TEST(CsrStoreTest, SingleShardLayoutAlsoRoundTrips) {
  const Graph graph = TestGraph(80);
  const std::string dir = TempDir("store_single");
  ASSERT_TRUE(WriteCsrShards(graph, dir).ok());  // default: one shard each
  auto store_or = CsrStore::Open(dir);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  ExpectViewMatchesGraph(**store_or, graph);
  std::filesystem::remove_all(dir);
}

TEST(CsrStoreTest, MissingDirectoryIsNotFound) {
  EXPECT_EQ(CsrStore::Open("/does/not/exist").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ReadShardMeta("/does/not/exist").status().code(),
            StatusCode::kNotFound);
}

// A directory whose meta.gps never landed (generator died mid-run) must
// not open: meta is written last precisely so partial output is invisible.
TEST(CsrStoreTest, PartialDirectoryWithoutMetaIsNotFound) {
  const Graph graph = TestGraph(80);
  const std::string dir = TempDir("store_partial");
  ASSERT_TRUE(WriteCsrShards(graph, dir, SmallShards()).ok());
  std::filesystem::remove(dir + "/meta.gps");
  EXPECT_EQ(CsrStore::Open(dir).status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

class CsrStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("store_corrupt");
    ASSERT_TRUE(WriteCsrShards(TestGraph(), dir_, SmallShards()).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void WriteFile(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  }

  std::string dir_;
};

TEST_F(CsrStoreCorruptionTest, FlippedBitInNodeShardIsDataLoss) {
  const std::string path = dir_ + "/nodes_1.gps";
  std::string contents = ReadFile(path);
  ASSERT_GT(contents.size(), 64u);
  contents[contents.size() / 2] ^= 0x20;
  WriteFile(path, contents);
  EXPECT_EQ(CsrStore::Open(dir_).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ReadCsrShards(dir_).status().code(), StatusCode::kDataLoss);
}

TEST_F(CsrStoreCorruptionTest, TruncatedEdgeShardIsDataLoss) {
  const std::string path = dir_ + "/edges_0.gps";
  const std::string contents = ReadFile(path);
  ASSERT_GT(contents.size(), 32u);
  for (const size_t keep : {size_t{3}, size_t{20}, contents.size() - 2}) {
    WriteFile(path, contents.substr(0, keep));
    EXPECT_EQ(CsrStore::Open(dir_).status().code(), StatusCode::kDataLoss)
        << "torn at " << keep << " bytes";
  }
}

TEST_F(CsrStoreCorruptionTest, WrongMagicIsInvalidArgument) {
  const std::string path = dir_ + "/nodes_0.gps";
  std::string contents = ReadFile(path);
  contents[0] ^= 0xff;
  WriteFile(path, contents);
  EXPECT_EQ(CsrStore::Open(dir_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsrStoreCorruptionTest, VersionSkewIsFailedPrecondition) {
  // Re-frame meta.gps under a future version with a valid CRC: the version
  // gate (not the checksum) must reject it.
  const std::string path = dir_ + "/meta.gps";
  const std::string contents = ReadFile(path);
  ASSERT_GT(contents.size(), 12u);
  const std::string payload = contents.substr(8, contents.size() - 12);
  ASSERT_TRUE(
      WriteFramedFile(path, kShardMetaMagic, /*version=*/99, payload).ok());
  EXPECT_EQ(CsrStore::Open(dir_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CsrStoreCorruptionTest, MetaShardMismatchIsCaught) {
  // Valid frames whose cross-file invariants disagree: claim one more
  // node than the shards hold. CRC passes; the coverage check must not.
  auto meta_or = ReadShardMeta(dir_);
  ASSERT_TRUE(meta_or.ok());
  ShardMeta meta = *meta_or;
  PayloadWriter payload;
  payload.WriteU64(static_cast<uint64_t>(meta.num_nodes + 1));
  payload.WriteU64(static_cast<uint64_t>(meta.num_edge_records));
  payload.WriteU64(static_cast<uint64_t>(meta.num_adj_entries));
  payload.WriteI32(meta.num_relations);
  payload.WriteI32(meta.feature_dim);
  payload.WriteI32(meta.num_node_classes);
  payload.WriteU64(static_cast<uint64_t>(meta.nodes_per_shard));
  payload.WriteU64(static_cast<uint64_t>(meta.edges_per_shard));
  payload.WriteI32(meta.num_node_shards);
  payload.WriteI32(meta.num_edge_shards);
  ASSERT_TRUE(WriteFramedFile(dir_ + "/meta.gps", kShardMetaMagic,
                              kShardVersion, payload.payload())
                  .ok());
  const Status status = CsrStore::Open(dir_).status();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST(ShardWriterTest, RejectsOutOfRangeEdges) {
  const std::string dir = TempDir("writer_reject");
  ShardWriter writer(dir, /*num_nodes=*/10, /*num_relations=*/2,
                     /*feature_dim=*/0);
  ASSERT_TRUE(writer.Open().ok());
  EXPECT_EQ(writer.AddEdge(-1, 2, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.AddEdge(0, 10, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.AddEdge(0, 1, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(writer.AddEdge(0, 1, 1).ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gp
