// End-to-end properties of the out-of-core pipeline: the streaming
// synthetic generators (Feistel-permuted labels, per-node feature
// streams), episode materialization off a GraphView, prompt-generator
// embeddings across the three GraphView backends, and the view-based
// pretraining loop against the in-memory one.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "data/stream_synthetic.h"
#include "data/synthetic.h"
#include "data/view_bundle.h"
#include "graph/graph_view.h"
#include "graph/store/csr_graph.h"
#include "graph/store/csr_store.h"
#include "graph/store/shard_writer.h"

namespace gp {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(IndexPermutationTest, IsABijectionOnNonPowerOfTwoDomains) {
  for (const int64_t n : {1, 2, 5, 97, 1000}) {
    IndexPermutation perm(n, /*key=*/0xfeedface);
    std::vector<bool> seen(n, false);
    for (int64_t x = 0; x < n; ++x) {
      const int64_t y = perm.Encrypt(x);
      ASSERT_GE(y, 0);
      ASSERT_LT(y, n);
      ASSERT_FALSE(seen[y]) << "collision at n=" << n << " x=" << x;
      seen[y] = true;
      ASSERT_EQ(perm.Decrypt(y), x);
    }
  }
}

TEST(StreamSyntheticTest, MagSimLabelsAreBalancedAndDense) {
  StreamNodeGraphConfig config;
  config.num_nodes = 3000;
  config.num_classes = 7;
  config.feature_dim = 8;
  const std::string dir = FreshDir("magsim_balance");
  ASSERT_TRUE(GenerateMagSimShards(config, dir).ok());
  auto store_or = CsrStore::Open(dir);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  const CsrStore& store = **store_or;
  ASSERT_EQ(store.num_nodes(), 3000);
  EXPECT_EQ(store.num_node_classes(), 7);
  EXPECT_GT(store.num_edges(), 0);

  // label(v) = Encrypt(v) % C over a bijection => class sizes differ by at
  // most one: the invariant that makes O(1) same-class sampling exact.
  std::vector<int> counts(7, 0);
  for (int v = 0; v < store.num_nodes(); ++v) {
    const int label = store.NodeLabel(v);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 7);
    ++counts[label];
  }
  for (const int c : counts) {
    EXPECT_GE(c, 3000 / 7);
    EXPECT_LE(c, 3000 / 7 + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(StreamSyntheticTest, GenerationIsDeterministic) {
  StreamNodeGraphConfig config;
  config.num_nodes = 1200;
  config.feature_dim = 8;
  const std::string dir_a = FreshDir("magsim_det_a");
  const std::string dir_b = FreshDir("magsim_det_b");
  ASSERT_TRUE(GenerateMagSimShards(config, dir_a).ok());
  ASSERT_TRUE(GenerateMagSimShards(config, dir_b).ok());
  auto a_or = CsrStore::Open(dir_a);
  auto b_or = CsrStore::Open(dir_b);
  ASSERT_TRUE(a_or.ok() && b_or.ok());
  const CsrStore& a = **a_or;
  const CsrStore& b = **b_or;
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int v = 0; v < a.num_nodes(); v += 37) {
    ASSERT_EQ(a.Degree(v), b.Degree(v));
    EXPECT_EQ(std::memcmp(a.NeighborsBegin(v), b.NeighborsBegin(v),
                          static_cast<size_t>(a.Degree(v)) *
                              sizeof(AdjEntry)),
              0);
    EXPECT_EQ(std::memcmp(a.FeatureRow(v), b.FeatureRow(v),
                          static_cast<size_t>(a.feature_dim()) *
                              sizeof(float)),
              0);
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(StreamSyntheticTest, WikiSimShardsOpenWithRelations) {
  StreamKnowledgeGraphConfig config;
  config.num_nodes = 2000;
  config.num_relations = 6;
  config.num_edges = 8000;
  config.feature_dim = 8;
  const std::string dir = FreshDir("wikisim_smoke");
  ASSERT_TRUE(GenerateWikiSimShards(config, dir).ok());
  auto store_or = CsrStore::Open(dir);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  const CsrStore& store = **store_or;
  EXPECT_EQ(store.num_relations(), 6);
  EXPECT_GT(store.num_edges(), 0);
  bool saw_nonzero_relation = false;
  for (int e = 0; e < store.num_edges(); ++e) {
    const Edge edge = store.EdgeRecord(e);
    ASSERT_GE(edge.relation, 0);
    ASSERT_LT(edge.relation, 6);
    saw_nonzero_relation = saw_nonzero_relation || edge.relation != 0;
  }
  EXPECT_TRUE(saw_nonzero_relation);
  std::filesystem::remove_all(dir);
}

Graph SmallGraph() {
  NodeGraphConfig config;
  config.num_nodes = 150;
  config.num_classes = 5;
  config.feature_dim = 8;
  return MakeNodeClassificationGraph(config);
}

GraphPrompterConfig SmallModelConfig() {
  GraphPrompterConfig config = FullGraphPrompterConfig(8, 3);
  config.embedding_dim = 8;
  config.recon_hidden = 8;
  config.selection_hidden = 8;
  return config;
}

// EmbedSubgraphs must give identical bytes over every backend: the
// in-memory path (a GraphAdapter over the Graph), the flat CsrGraph and
// the mmap CsrStore see the same rows, so they run the same encode.
TEST(ViewGeneratorTest, EmbedSubgraphsIdenticalAcrossBackends) {
  const Graph graph = SmallGraph();
  const std::string dir = FreshDir("embed_backends");
  ShardWriterOptions options;
  options.nodes_per_shard = 64;
  options.edges_per_shard = 100;
  ASSERT_TRUE(WriteCsrShards(graph, dir, options).ok());
  auto store_or = CsrStore::Open(dir);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  const GraphAdapter adapter(graph);
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  GraphPrompterModel model(SmallModelConfig());

  Rng sample_rng(5);
  std::vector<Subgraph> subgraphs;
  for (int node = 0; node < 24; ++node) {
    subgraphs.push_back(
        model.generator().SampleForNode(adapter, node, &sample_rng));
  }
  const Tensor reference = model.generator().EmbedSubgraphs(adapter, subgraphs);
  const size_t bytes = static_cast<size_t>(reference.size()) * sizeof(float);
  for (const GraphView* view :
       std::vector<const GraphView*>{&csr, store_or->get()}) {
    const Tensor embedded = model.generator().EmbedSubgraphs(*view, subgraphs);
    ASSERT_EQ(embedded.rows(), reference.rows());
    ASSERT_EQ(embedded.cols(), reference.cols());
    EXPECT_EQ(std::memcmp(embedded.data().data(), reference.data().data(),
                          bytes),
              0);
  }
  std::filesystem::remove_all(dir);
}

TEST(ViewBundleTest, MaterializesAValidDeterministicBundle) {
  const Graph graph = SmallGraph();
  const GraphAdapter view(graph);
  ViewBundleConfig config;
  config.items_per_class = 4;
  auto bundle_or = MaterializeViewBundle(view, "mag_view", config);
  ASSERT_TRUE(bundle_or.ok()) << bundle_or.status().ToString();
  const DatasetBundle& bundle = *bundle_or;
  EXPECT_EQ(bundle.name, "mag_view");
  EXPECT_GT(bundle.graph.num_nodes(), 0);
  EXPECT_LE(bundle.graph.num_nodes(), graph.num_nodes());
  EXPECT_TRUE(bundle.graph.Validate().ok());
  EXPECT_EQ(bundle.graph.feature_dim(), graph.feature_dim());

  // Deterministic: a second materialization is byte-identical.
  auto again_or = MaterializeViewBundle(view, "mag_view", config);
  ASSERT_TRUE(again_or.ok());
  ASSERT_EQ(again_or->graph.num_nodes(), bundle.graph.num_nodes());
  ASSERT_EQ(again_or->graph.num_edges(), bundle.graph.num_edges());
  EXPECT_EQ(std::memcmp(
                again_or->graph.node_features().data().data(),
                bundle.graph.node_features().data().data(),
                static_cast<size_t>(bundle.graph.node_features().size()) *
                    sizeof(float)),
            0);
}

TEST(ViewBundleTest, RejectsEmptyAndUnlabeledViews) {
  const Graph graph = SmallGraph();
  const GraphAdapter view(graph);
  ViewBundleConfig config;
  config.items_per_class = 0;
  EXPECT_EQ(MaterializeViewBundle(view, "bad", config).status().code(),
            StatusCode::kInvalidArgument);
}

// With Multi-Task off, both overloads run the same Neighbor Matching
// episodes through the same loop (the in-memory one over a GraphAdapter),
// so two same-seed models land on identical curves.
TEST(ViewPretrainTest, NeighborMatchingCurvesMatchGraphPath) {
  const Graph graph = SmallGraph();
  DatasetBundle dataset = MakeBundleFromGraph(
      "nm_equiv", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  const GraphAdapter view(dataset.graph);

  PretrainConfig config;
  config.steps = 6;
  config.ways = 3;
  config.shots = 2;
  config.queries_per_task = 2;
  config.multi_task = false;
  config.log_every = 2;

  GraphPrompterModel on_graph(SmallModelConfig());
  const PretrainCurves graph_curves = Pretrain(&on_graph, dataset, config);

  GraphPrompterModel on_view(SmallModelConfig());
  const PretrainCurves view_curves = Pretrain(&on_view, view, config);

  ASSERT_EQ(graph_curves.loss.size(), view_curves.loss.size());
  for (size_t i = 0; i < graph_curves.loss.size(); ++i) {
    EXPECT_EQ(graph_curves.loss[i], view_curves.loss[i]) << "window " << i;
    EXPECT_EQ(graph_curves.train_accuracy[i], view_curves.train_accuracy[i]);
  }
}

// The view-based Multi-Task builder has no split structure to lean on; it
// must still assemble valid episodes and train (loss finite, curve
// populated).
TEST(ViewPretrainTest, MultiTaskOverViewTrains) {
  const Graph graph = SmallGraph();
  const GraphAdapter view(graph);
  PretrainConfig config;
  config.steps = 4;
  config.ways = 3;
  config.shots = 2;
  config.queries_per_task = 2;
  config.neighbor_matching = false;
  config.log_every = 2;
  GraphPrompterModel model(SmallModelConfig());
  const PretrainCurves curves = Pretrain(&model, view, config);
  ASSERT_FALSE(curves.loss.empty());
  for (const double loss : curves.loss) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
  }
}

}  // namespace
}  // namespace gp
