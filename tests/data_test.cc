#include "data/datasets.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "data/synthetic.h"
#include "tensor/ops.h"

namespace gp {
namespace {

TEST(FeatureSpaceTest, PrototypesHaveUnitishNorm) {
  FeatureSpace space(64, 8, 1);
  Rng rng(2);
  double total_norm = 0.0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const auto proto = space.SamplePrototype(&rng);
    double norm = 0.0;
    for (float v : proto) norm += static_cast<double>(v) * v;
    total_norm += std::sqrt(norm);
  }
  EXPECT_NEAR(total_norm / n, 1.0, 0.35);
}

TEST(FeatureSpaceTest, SameSeedSameBasis) {
  FeatureSpace a(32, 4, 77), b(32, 4, 77);
  Rng rng_a(5), rng_b(5);
  EXPECT_EQ(a.SamplePrototype(&rng_a), b.SamplePrototype(&rng_b));
}

TEST(SyntheticNodeGraphTest, ShapeMatchesConfig) {
  NodeGraphConfig config;
  config.num_nodes = 300;
  config.num_classes = 10;
  config.feature_dim = 16;
  Graph g = MakeNodeClassificationGraph(config);
  EXPECT_EQ(g.num_nodes(), 300);
  EXPECT_EQ(g.num_node_classes(), 10);
  EXPECT_EQ(g.feature_dim(), 16);
  EXPECT_GT(g.num_edges(), 0);
}

TEST(SyntheticNodeGraphTest, ClassesAreBalanced) {
  NodeGraphConfig config;
  config.num_nodes = 400;
  config.num_classes = 8;
  Graph g = MakeNodeClassificationGraph(config);
  for (int c = 0; c < 8; ++c) {
    EXPECT_EQ(static_cast<int>(g.NodesOfClass(c).size()), 50);
  }
}

TEST(SyntheticNodeGraphTest, HomophilyAboveChance) {
  NodeGraphConfig config;
  config.num_nodes = 600;
  config.num_classes = 6;
  config.homophily = 0.8;
  config.noise_edge_fraction = 0.1;
  Graph g = MakeNodeClassificationGraph(config);
  int same = 0;
  for (const auto& e : g.edges()) {
    if (g.node_label(e.src) == g.node_label(e.dst)) ++same;
  }
  const double frac = static_cast<double>(same) / g.num_edges();
  EXPECT_GT(frac, 0.5);  // chance would be ~1/6
}

TEST(SyntheticNodeGraphTest, FeaturesClusterByClass) {
  NodeGraphConfig config;
  config.num_nodes = 200;
  config.num_classes = 4;
  config.feature_noise = 0.3;
  Graph g = MakeNodeClassificationGraph(config);
  // Mean intra-class cosine similarity should exceed inter-class.
  const Tensor& features = g.node_features();
  const int dim = features.cols();
  double intra = 0, inter = 0;
  int intra_n = 0, inter_n = 0;
  for (int i = 0; i < 100; ++i) {
    for (int j = i + 1; j < 100; ++j) {
      const float sim = SimilarityRaw(
          features.data().data() + static_cast<size_t>(i) * dim,
          features.data().data() + static_cast<size_t>(j) * dim, dim,
          DistanceMetric::kCosine);
      if (g.node_label(i) == g.node_label(j)) {
        intra += sim;
        ++intra_n;
      } else {
        inter += sim;
        ++inter_n;
      }
    }
  }
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.1);
}

TEST(SyntheticNodeGraphTest, DeterministicForSeed) {
  NodeGraphConfig config;
  config.num_nodes = 100;
  config.num_classes = 5;
  Graph a = MakeNodeClassificationGraph(config);
  Graph b = MakeNodeClassificationGraph(config);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.node_features().data(), b.node_features().data());
}

TEST(SyntheticKgTest, ShapeMatchesConfig) {
  KnowledgeGraphConfig config;
  config.num_nodes = 300;
  config.num_relations = 20;
  config.num_clusters = 5;
  config.num_edges = 1500;
  Graph g = MakeKnowledgeGraph(config);
  EXPECT_EQ(g.num_nodes(), 300);
  EXPECT_EQ(g.num_relations(), 20);
  EXPECT_GT(g.num_edges(), 1000);
}

TEST(SyntheticKgTest, EveryRelationHasEdges) {
  KnowledgeGraphConfig config;
  config.num_nodes = 400;
  config.num_relations = 25;
  config.num_clusters = 6;
  config.num_edges = 2500;
  Graph g = MakeKnowledgeGraph(config);
  for (int r = 0; r < config.num_relations; ++r) {
    EXPECT_GT(g.EdgesOfRelation(r).size(), 0u) << "relation " << r;
  }
}

TEST(SyntheticKgTest, StructuralEdgesRespectClusterPairs) {
  KnowledgeGraphConfig config;
  config.num_nodes = 300;
  config.num_relations = 10;
  config.num_clusters = 5;
  config.num_edges = 1000;
  config.noise_edge_fraction = 0.0;
  Graph g = MakeKnowledgeGraph(config);
  // All edges of one relation connect a single (head-cluster,
  // tail-cluster) pair; node labels record the cluster.
  for (int r = 0; r < 10; ++r) {
    std::set<std::pair<int, int>> pairs;
    for (int e : g.EdgesOfRelation(r)) {
      pairs.insert({g.node_label(g.edge(e).src),
                    g.node_label(g.edge(e).dst)});
    }
    EXPECT_LE(pairs.size(), 1u) << "relation " << r;
  }
}

TEST(DatasetBundleTest, TableIIClassCounts) {
  EXPECT_EQ(MakeArxivSim(0.2).num_classes, 40);
  EXPECT_EQ(MakeConceptNetSim(0.3).num_classes, 14);
  EXPECT_EQ(MakeFb15kSim(0.3).num_classes, 200);
  EXPECT_EQ(MakeNellSim(0.3).num_classes, 291);
}

TEST(DatasetBundleTest, SplitsAreDisjointAndComplete) {
  DatasetBundle ds = MakeArxivSim(0.2);
  for (int c = 0; c < ds.num_classes; ++c) {
    std::set<int> train(ds.train_items_by_class[c].begin(),
                        ds.train_items_by_class[c].end());
    for (int item : ds.test_items_by_class[c]) {
      EXPECT_FALSE(train.count(item));
    }
    EXPECT_EQ(train.size() + ds.test_items_by_class[c].size(),
              ds.graph.NodesOfClass(c).size());
  }
}

TEST(DatasetBundleTest, LabelOfItemMatchesSplit) {
  DatasetBundle ds = MakeFb15kSim(0.25);
  for (int c = 0; c < 20; ++c) {
    for (int item : ds.train_items_by_class[c]) {
      EXPECT_EQ(ds.LabelOfItem(item), c);
    }
  }
}

TEST(DatasetBundleTest, ItemRawFeatureEdgeIsEndpointMean) {
  DatasetBundle ds = MakeConceptNetSim(0.3);
  const int edge_id = ds.train_items_by_class[0][0];
  const Edge& e = ds.graph.edge(edge_id);
  const auto feat = ds.ItemRawFeature(edge_id);
  const auto head = ds.graph.node_features().Row(e.src);
  const auto tail = ds.graph.node_features().Row(e.dst);
  for (size_t i = 0; i < feat.size(); ++i) {
    EXPECT_NEAR(feat[i], 0.5f * (head[i] + tail[i]), 1e-6f);
  }
}

TEST(DatasetBundleTest, ClassDescriptorIsTrainMean) {
  DatasetBundle ds = MakeArxivSim(0.15);
  const auto desc = ds.ClassDescriptor(3);
  std::vector<double> mean(ds.graph.feature_dim(), 0.0);
  for (int item : ds.train_items_by_class[3]) {
    const auto f = ds.ItemRawFeature(item);
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += f[i];
  }
  for (size_t i = 0; i < mean.size(); ++i) {
    mean[i] /= ds.train_items_by_class[3].size();
    EXPECT_NEAR(desc[i], mean[i], 1e-4f);
  }
}

TEST(SyntheticNodeGraphTest, TemporalDriftShiftsLateNodes) {
  NodeGraphConfig config;
  config.num_nodes = 400;
  config.num_classes = 4;
  config.feature_noise = 0.0;  // isolate the drift component
  config.temporal_drift = 2.0;
  Graph g = MakeNodeClassificationGraph(config);
  // Mean feature of the earliest vs latest nodes differs by ~ the drift.
  std::vector<double> early(g.feature_dim(), 0.0), late(g.feature_dim(), 0.0);
  for (int v = 0; v < 50; ++v) {
    const auto fe = g.node_features().Row(v);
    const auto fl = g.node_features().Row(g.num_nodes() - 1 - v);
    for (int d = 0; d < g.feature_dim(); ++d) {
      early[d] += fe[d] / 50;
      late[d] += fl[d] / 50;
    }
  }
  double shift = 0.0;
  for (int d = 0; d < g.feature_dim(); ++d) {
    shift += (late[d] - early[d]) * (late[d] - early[d]);
  }
  // Expected || drift * (recency_late - recency_early) || ~ 2.0 * 0.875.
  EXPECT_GT(std::sqrt(shift), 1.0);
}

TEST(SyntheticNodeGraphTest, ZeroDriftMeansNoShift) {
  NodeGraphConfig config;
  config.num_nodes = 200;
  config.num_classes = 4;
  config.feature_noise = 0.0;
  config.temporal_drift = 0.0;
  Graph g = MakeNodeClassificationGraph(config);
  // Same-class nodes have identical features regardless of id.
  const auto& cls0 = g.NodesOfClass(0);
  const auto a = g.node_features().Row(cls0.front());
  const auto b = g.node_features().Row(cls0.back());
  for (size_t d = 0; d < a.size(); ++d) EXPECT_NEAR(a[d], b[d], 1e-6f);
}

TEST(DatasetBundleTest, SplitIsTemporalPerClass) {
  // Every train item's recency proxy is <= every test item's within a
  // class (the temporal split).
  DatasetBundle ds = MakeArxivSim(0.3, 21);
  for (int c = 0; c < 10; ++c) {
    int max_train = -1, min_test = 1 << 30;
    for (int item : ds.train_items_by_class[c]) {
      max_train = std::max(max_train, item);
    }
    for (int item : ds.test_items_by_class[c]) {
      min_test = std::min(min_test, item);
    }
    if (!ds.test_items_by_class[c].empty()) {
      EXPECT_LE(max_train, min_test) << "class " << c;
    }
  }
}

TEST(DatasetBundleTest, EdgeSplitIsTemporalPerRelation) {
  DatasetBundle ds = MakeConceptNetSim(0.3, 22);
  for (int r = 0; r < ds.num_classes; ++r) {
    auto recency = [&](int e) {
      return ds.graph.edge(e).src + ds.graph.edge(e).dst;
    };
    int max_train = -1, min_test = 1 << 30;
    for (int e : ds.train_items_by_class[r]) {
      max_train = std::max(max_train, recency(e));
    }
    for (int e : ds.test_items_by_class[r]) {
      min_test = std::min(min_test, recency(e));
    }
    if (!ds.test_items_by_class[r].empty()) {
      EXPECT_LE(max_train, min_test) << "relation " << r;
    }
  }
}

TEST(DatasetBundleTest, TaskTypesAreCorrect) {
  EXPECT_EQ(MakeMagSim(0.1).task, TaskType::kNodeClassification);
  EXPECT_EQ(MakeWikiSim(0.2).task, TaskType::kEdgeClassification);
  EXPECT_STREQ(TaskTypeName(TaskType::kNodeClassification),
               "node-classification");
}

}  // namespace
}  // namespace gp
