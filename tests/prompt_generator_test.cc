#include "core/prompt_generator.h"

#include <cstring>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp {
namespace {

PromptGeneratorConfig SmallConfig(int in_dim = 16) {
  PromptGeneratorConfig config;
  config.gnn.in_dim = in_dim;
  config.gnn.hidden_dim = 8;
  config.gnn.out_dim = 8;
  config.sampler.num_hops = 1;
  config.sampler.max_nodes = 12;
  return config;
}

class PromptGeneratorTest : public ::testing::Test {
 protected:
  PromptGeneratorTest()
      : dataset_(MakeArxivSim(0.1, 5)), view_(dataset_.graph) {}
  DatasetBundle dataset_;
  GraphAdapter view_;
};

// A GraphAdapter that counts FeatureRow reads.
class FeatureReadCounter final : public GraphView {
 public:
  explicit FeatureReadCounter(const Graph& graph) : inner_(graph) {}

  int num_nodes() const override { return inner_.num_nodes(); }
  int num_edges() const override { return inner_.num_edges(); }
  int num_relations() const override { return inner_.num_relations(); }
  int feature_dim() const override { return inner_.feature_dim(); }
  int num_node_classes() const override { return inner_.num_node_classes(); }
  int Degree(int node) const override { return inner_.Degree(node); }
  const AdjEntry* NeighborsBegin(int node) const override {
    return inner_.NeighborsBegin(node);
  }
  const float* FeatureRow(int node) const override {
    ++reads_;
    return inner_.FeatureRow(node);
  }
  int NodeLabel(int node) const override { return inner_.NodeLabel(node); }
  Edge EdgeRecord(int edge_id) const override {
    return inner_.EdgeRecord(edge_id);
  }

  int reads() const { return reads_; }

 private:
  GraphAdapter inner_;
  mutable int reads_ = 0;
};

TEST_F(PromptGeneratorTest, EmbedItemsShape) {
  Rng rng(1);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(2);
  std::vector<int> items = {dataset_.train_items_by_class[0][0],
                            dataset_.train_items_by_class[1][0],
                            dataset_.train_items_by_class[2][0]};
  Tensor emb = generator.EmbedItems(dataset_, items, &sample_rng);
  EXPECT_EQ(emb.rows(), 3);
  EXPECT_EQ(emb.cols(), 8);
}

TEST_F(PromptGeneratorTest, EdgeWeightsAreInUnitInterval) {
  Rng rng(3);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(4);
  const int item = dataset_.train_items_by_class[0][0];
  Subgraph sg = generator.SampleForItem(dataset_, item, &sample_rng);
  Tensor weights = generator.ReconstructEdgeWeights(view_, sg);
  EXPECT_EQ(weights.rows(), sg.num_edges());
  for (float w : weights.data()) {
    EXPECT_GT(w, 0.0f);
    EXPECT_LT(w, 1.0f);
  }
}

TEST_F(PromptGeneratorTest, ReconstructionDisabledGivesUnitWeights) {
  auto config = SmallConfig(dataset_.graph.feature_dim());
  config.use_reconstruction = false;
  Rng rng(5);
  PromptGenerator generator(config, &rng);
  Rng sample_rng(6);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  Tensor weights = generator.ReconstructEdgeWeights(view_, sg);
  for (float w : weights.data()) EXPECT_EQ(w, 1.0f);
}

// Unit weights need no features: with reconstruction off no feature row
// is read; with it on, each subgraph node's row is read once.
TEST_F(PromptGeneratorTest, ReconstructEdgeWeightsReadsFeaturesOnlyWhenUsed) {
  const FeatureReadCounter view(dataset_.graph);
  auto config = SmallConfig(dataset_.graph.feature_dim());
  Rng sample_rng(32);
  for (const bool reconstruct : {false, true}) {
    config.use_reconstruction = reconstruct;
    Rng rng(33);
    PromptGenerator generator(config, &rng);
    const Subgraph sg = generator.SampleForItem(
        dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
    ASSERT_GT(sg.num_edges(), 0);
    const int before = view.reads();
    generator.ReconstructEdgeWeights(view, sg);
    EXPECT_EQ(view.reads() - before, reconstruct ? sg.num_nodes() : 0);
  }
}

TEST_F(PromptGeneratorTest, BatchedEqualsPerItemEmbedding) {
  // The disjoint-union batching must give the same embeddings as embedding
  // each subgraph alone.
  Rng rng(7);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(8);
  std::vector<Subgraph> subgraphs;
  for (int i = 0; i < 4; ++i) {
    subgraphs.push_back(generator.SampleForItem(
        dataset_, dataset_.train_items_by_class[i][0], &sample_rng));
  }
  Tensor batched = generator.EmbedSubgraphs(view_, subgraphs);
  const size_t row_bytes = sizeof(float) * batched.cols();
  for (int i = 0; i < 4; ++i) {
    Tensor single = generator.EmbedSubgraphs(view_, {subgraphs[i]});
    ASSERT_EQ(single.cols(), batched.cols());
    EXPECT_EQ(std::memcmp(batched.data().data() + i * batched.cols(),
                          single.data().data(), row_bytes),
              0)
        << "subgraph " << i;
  }
}

TEST_F(PromptGeneratorTest, InferenceDedupMatchesPerOccurrencePath) {
  // Subgraphs sampled around a few repeated items share nodes and edges.
  // Inference weighs each distinct edge once and scatters the weight back;
  // under autograd every occurrence is weighed. Both must give the same
  // embeddings, bit for bit.
  Rng rng(16);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(17);
  std::vector<Subgraph> subgraphs;
  for (int i = 0; i < 12; ++i) {
    subgraphs.push_back(generator.SampleForItem(
        dataset_, dataset_.train_items_by_class[i % 3][0], &sample_rng));
  }
  const Tensor with_grad = generator.EmbedSubgraphs(view_, subgraphs);
  ASSERT_TRUE(with_grad.requires_grad());
  Counter* edges = Telemetry().GetCounter("generator/recon_edges");
  Counter* unique = Telemetry().GetCounter("generator/recon_unique_edges");
  const int64_t edges_before = edges->Value();
  const int64_t unique_before = unique->Value();
  Tensor no_grad;
  {
    NoGradGuard guard;
    no_grad = generator.EmbedSubgraphs(view_, subgraphs);
  }
  // The union repeats edges, so the dedup has work to do.
  EXPECT_LT(unique->Value() - unique_before, edges->Value() - edges_before);
  ASSERT_EQ(no_grad.rows(), 12);
  ASSERT_EQ(no_grad.data().size(), with_grad.data().size());
  EXPECT_EQ(std::memcmp(no_grad.data().data(), with_grad.data().data(),
                        sizeof(float) * no_grad.data().size()),
            0);
}

TEST_F(PromptGeneratorTest, GradientsFlowThroughReconstruction) {
  Rng rng(9);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(10);
  std::vector<int> items = {dataset_.train_items_by_class[0][0]};
  Backward(SumAll(generator.EmbedItems(dataset_, items, &sample_rng)));
  // Both the reconstruction MLP and the GNN must receive gradients.
  bool any_recon_grad = false;
  for (const auto& [name, p] : generator.NamedParameters()) {
    if (name.find("recon") != std::string::npos && !p.grad().empty()) {
      float total = 0;
      for (float g : p.grad()) total += std::abs(g);
      any_recon_grad = any_recon_grad || total > 0;
    }
  }
  EXPECT_TRUE(any_recon_grad);
}

TEST_F(PromptGeneratorTest, EdgeTaskEmbedsEdges) {
  DatasetBundle kg = MakeConceptNetSim(0.2, 11);
  Rng rng(12);
  PromptGenerator generator(SmallConfig(kg.graph.feature_dim()), &rng);
  Rng sample_rng(13);
  std::vector<int> items = {kg.train_items_by_class[0][0],
                            kg.train_items_by_class[1][0]};
  Tensor emb = generator.EmbedItems(kg, items, &sample_rng);
  EXPECT_EQ(emb.rows(), 2);
}

TEST_F(PromptGeneratorTest, FeatureOffsetChangesEmbedding) {
  Rng rng(14);
  PromptGenerator generator(SmallConfig(dataset_.graph.feature_dim()), &rng);
  Rng sample_rng(15);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  Tensor base = generator.EmbedSubgraphs(view_, {sg});
  Tensor offset = Tensor::Full(1, dataset_.graph.feature_dim(), 0.5f);
  Tensor shifted = generator.EmbedSubgraphs(view_, {sg}, offset);
  float diff = 0;
  for (int64_t i = 0; i < base.size(); ++i) {
    diff += std::abs(base.data()[i] - shifted.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST_F(PromptGeneratorTest, BilinearReconstructionVariant) {
  auto config = SmallConfig(dataset_.graph.feature_dim());
  config.recon_arch = ReconArch::kBilinear;
  Rng rng(30);
  PromptGenerator generator(config, &rng);
  Rng sample_rng(31);
  Subgraph sg = generator.SampleForItem(
      dataset_, dataset_.train_items_by_class[0][0], &sample_rng);
  Tensor weights = generator.ReconstructEdgeWeights(view_, sg);
  EXPECT_EQ(weights.rows(), sg.num_edges());
  for (float w : weights.data()) {
    EXPECT_GT(w, 0.0f);
    EXPECT_LT(w, 1.0f);
  }
  // Gradients reach the bilinear weight matrix.
  std::vector<int> items = {dataset_.train_items_by_class[0][0]};
  Backward(SumAll(generator.EmbedItems(dataset_, items, &sample_rng)));
  bool any_grad = false;
  for (const auto& [name, p] : generator.NamedParameters()) {
    if (name.find("bilinear") != std::string::npos && !p.grad().empty()) {
      any_grad = true;
    }
  }
  EXPECT_TRUE(any_grad);
}

TEST_F(PromptGeneratorTest, ReconArchNames) {
  EXPECT_STREQ(ReconArchName(ReconArch::kMlp), "MLP");
  EXPECT_STREQ(ReconArchName(ReconArch::kBilinear), "bilinear");
}

TEST_F(PromptGeneratorTest, MultiHopSamplesAtLeastAsManyNodes) {
  auto config1 = SmallConfig(dataset_.graph.feature_dim());
  config1.sampler.max_nodes = 60;
  auto config3 = config1;
  config3.sampler.num_hops = 3;
  Rng rng(18);
  PromptGenerator g1(config1, &rng);
  PromptGenerator g3(config3, &rng);
  double nodes1 = 0, nodes3 = 0;
  Rng s1(19), s3(19);
  for (int i = 0; i < 20; ++i) {
    const int item = dataset_.train_items_by_class[i % 5][0];
    nodes1 += g1.SampleForItem(dataset_, item, &s1).num_nodes();
    nodes3 += g3.SampleForItem(dataset_, item, &s3).num_nodes();
  }
  EXPECT_GE(nodes3, nodes1);
}

}  // namespace
}  // namespace gp
