#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "gnn/encoder.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp {
namespace {

std::vector<int> AllRows(int num_rows) {
  std::vector<int> rows(num_rows);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

// A one-layer plan that computes every row of the graph.
GnnLayerPlan EveryRow(GnnArch arch, int num_rows, const std::vector<int>& src,
                      const std::vector<int>& dst) {
  GnnEncoderConfig config;
  config.arch = arch;
  config.num_layers = 1;
  Rng rng(0);
  return GnnEncoder(config, &rng)
      .Plan(num_rows, src, dst, AllRows(num_rows))
      .layers[0];
}

// A 3-node path 0-1-2 (directed both ways) with 2-dim features.
struct TinyGraph {
  Tensor x = Tensor::FromData(3, 2, {1, 0, 0, 1, 1, 1});
  std::vector<int> src = {0, 1, 1, 2};
  std::vector<int> dst = {1, 0, 2, 1};

  GnnLayerPlan Layer(GnnArch arch) const {
    return EveryRow(arch, x.rows(), src, dst);
  }
};

TEST(SageConvTest, OutputShape) {
  Rng rng(1);
  SageConv conv(2, 4, &rng);
  TinyGraph g;
  Tensor h = conv.Forward(g.x, g.Layer(GnnArch::kSage), Tensor());
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 4);
}

TEST(SageConvTest, NoEdgesUsesSelfOnly) {
  Rng rng(2);
  SageConv conv(2, 3, &rng);
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor h = conv.Forward(x, EveryRow(GnnArch::kSage, x.rows(), {}, {}), Tensor());
  EXPECT_EQ(h.rows(), 2);
}

TEST(SageConvTest, ZeroEdgeWeightsMatchNoNeighborsUpToEpsilon) {
  Rng rng(3);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor zero_w = Tensor::Zeros(4, 1);
  Tensor with_zero = conv.Forward(g.x, g.Layer(GnnArch::kSage), zero_w);
  Tensor no_edges = conv.Forward(g.x, EveryRow(GnnArch::kSage, 3, {}, {}), Tensor());
  for (int64_t i = 0; i < with_zero.size(); ++i) {
    EXPECT_NEAR(with_zero.data()[i], no_edges.data()[i], 1e-3f);
  }
}

TEST(SageConvTest, EdgeWeightChangesOutput) {
  Rng rng(4);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor w1 = Tensor::Full(4, 1, 1.0f);
  Tensor w2 = Tensor::FromData(4, 1, {1.0f, 0.1f, 0.9f, 0.2f});
  Tensor h1 = conv.Forward(g.x, g.Layer(GnnArch::kSage), w1);
  Tensor h2 = conv.Forward(g.x, g.Layer(GnnArch::kSage), w2);
  float diff = 0;
  for (int64_t i = 0; i < h1.size(); ++i) {
    diff += std::abs(h1.data()[i] - h2.data()[i]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(SageConvTest, GradientFlowsToEdgeWeights) {
  Rng rng(5);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor w = Tensor::Full(4, 1, 0.5f, /*requires_grad=*/true);
  Backward(SumAll(conv.Forward(g.x, g.Layer(GnnArch::kSage), w)));
  ASSERT_FALSE(w.grad().empty());
  float total = 0;
  for (float v : w.grad()) total += std::abs(v);
  EXPECT_GT(total, 0.0f);
}

TEST(SageConvTest, PermutationEquivariant) {
  // Relabeling nodes permutes outputs identically.
  Rng rng(6);
  SageConv conv(2, 3, &rng);
  TinyGraph g;
  Tensor h = conv.Forward(g.x, g.Layer(GnnArch::kSage), Tensor());
  // Permutation: 0->2, 1->0, 2->1.
  std::vector<int> perm = {2, 0, 1};
  Tensor xp = Tensor::Zeros(3, 2);
  for (int i = 0; i < 3; ++i) {
    for (int c = 0; c < 2; ++c) xp.at(perm[i], c) = g.x.at(i, c);
  }
  std::vector<int> src_p, dst_p;
  for (size_t e = 0; e < g.src.size(); ++e) {
    src_p.push_back(perm[g.src[e]]);
    dst_p.push_back(perm[g.dst[e]]);
  }
  Tensor hp = conv.Forward(xp, EveryRow(GnnArch::kSage, 3, src_p, dst_p), Tensor());
  for (int i = 0; i < 3; ++i) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(h.at(i, c), hp.at(perm[i], c), 1e-4f);
    }
  }
}

TEST(GcnConvTest, OutputShapeAndGrad) {
  Rng rng(7);
  GcnConv conv(2, 4, &rng);
  TinyGraph g;
  Tensor w = Tensor::Full(4, 1, 1.0f, true);
  Tensor h = conv.Forward(g.x, g.Layer(GnnArch::kGcn), w);
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 4);
  Backward(SumAll(h));
  EXPECT_FALSE(w.grad().empty());
}

TEST(GcnConvTest, IsolatedGraphStillWorks) {
  Rng rng(8);
  GcnConv conv(2, 2, &rng);
  Tensor x = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor h = conv.Forward(x, EveryRow(GnnArch::kGcn, x.rows(), {}, {}), Tensor());
  EXPECT_EQ(h.rows(), 2);
}

TEST(GatConvTest, OutputShape) {
  Rng rng(9);
  GatConv conv(2, 4, &rng);
  TinyGraph g;
  Tensor h = conv.Forward(g.x, g.Layer(GnnArch::kGat), Tensor());
  EXPECT_EQ(h.rows(), 3);
  EXPECT_EQ(h.cols(), 4);
}

TEST(GatConvTest, AttentionIsNormalizedPerDestination) {
  // With identical neighbor features, GAT attention halves each message;
  // compare against a single-neighbor graph to detect normalisation.
  Rng rng(10);
  GatConv conv(2, 2, &rng);
  Tensor x = Tensor::FromData(3, 2, {1, 1, 1, 1, 5, 5});
  // Node 2 receives from 0 and 1 (identical features).
  Tensor h_two = conv.Forward(x, EveryRow(GnnArch::kGat, 3, {0, 1}, {2, 2}), Tensor());
  Tensor h_one = conv.Forward(x, EveryRow(GnnArch::kGat, 3, {0}, {2}), Tensor());
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(h_two.at(2, c), h_one.at(2, c), 1e-4f);
  }
}

TEST(GatConvTest, GradientsFlowToAttentionParams) {
  Rng rng(11);
  GatConv conv(2, 3, &rng);
  TinyGraph g;
  Backward(SumAll(conv.Forward(g.x, g.Layer(GnnArch::kGat), Tensor())));
  for (const auto& p : conv.Parameters()) {
    ASSERT_FALSE(p.grad().empty());
  }
}

TEST(GnnEncoderTest, AllArchitecturesProduceShapes) {
  TinyGraph g;
  for (GnnArch arch : {GnnArch::kSage, GnnArch::kGcn, GnnArch::kGat}) {
    Rng rng(12);
    GnnEncoderConfig config;
    config.arch = arch;
    config.in_dim = 2;
    config.hidden_dim = 8;
    config.out_dim = 4;
    config.num_layers = 2;
    GnnEncoder encoder(config, &rng);
    Tensor h = encoder.Forward(
        g.x, encoder.Plan(3, g.src, g.dst, AllRows(3)), Tensor());
    EXPECT_EQ(h.rows(), 3);
    EXPECT_EQ(h.cols(), 4);
  }
}

TEST(GnnEncoderTest, ArchNames) {
  EXPECT_STREQ(GnnArchName(GnnArch::kSage), "GraphSAGE");
  EXPECT_STREQ(GnnArchName(GnnArch::kGat), "GAT");
  EXPECT_STREQ(GnnArchName(GnnArch::kGcn), "GCN");
}

TEST(GnnEncoderTest, SingleLayerConfig) {
  Rng rng(14);
  GnnEncoderConfig config;
  config.in_dim = 2;
  config.out_dim = 3;
  config.num_layers = 1;
  GnnEncoder encoder(config, &rng);
  TinyGraph g;
  EXPECT_EQ(
      encoder.Forward(g.x, encoder.Plan(3, g.src, g.dst, AllRows(3)), Tensor())
          .cols(),
      3);
}

// A chain 0-1-2-3-4-5 (both directions, packed in order) and a lone row 6:
// three layers read out at row 0 reach one row further per layer.
TEST(GnnPlanTest, EachLayerComputesWhatTheNextReads) {
  std::vector<int> src, dst;
  for (int i = 0; i < 5; ++i) {
    src.insert(src.end(), {i, i + 1});
    dst.insert(dst.end(), {i + 1, i});
  }
  GnnEncoderConfig config;
  config.num_layers = 3;
  Rng rng(15);
  const GnnPlan plan = GnnEncoder(config, &rng).Plan(7, src, dst, {0});
  EXPECT_EQ(plan.rows, (std::vector<int>{0, 1, 2, 3}));
  // Edges into rows 0-2, in packed order: 0->1, 1->0, 1->2, 2->1, 3->2.
  EXPECT_EQ(plan.edges, (std::vector<int>{0, 1, 2, 3, 5}));
  EXPECT_EQ(plan.edge_src, (std::vector<int>{0, 1, 1, 2, 3}));
  EXPECT_EQ(plan.edge_dst, (std::vector<int>{1, 0, 2, 1, 2}));
  ASSERT_EQ(plan.layers.size(), 3u);
  EXPECT_EQ(plan.layers[0].self, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(plan.layers[0].weight, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(plan.layers[1].self, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.layers[1].src, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(plan.layers[1].dst, (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(plan.layers[1].weight, (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(plan.layers[2].self, (std::vector<int>{0}));
  EXPECT_EQ(plan.layers[2].src, (std::vector<int>{1}));
  EXPECT_EQ(plan.layers[2].weight, (std::vector<int>{1}));
  EXPECT_TRUE(plan.layers[0].degree.empty());  // SAGE reads no degrees
  EXPECT_TRUE(plan.order.empty());
}

TEST(GnnPlanTest, GcnDegreesCountTheWholeEdgeList) {
  // Row 1 has in-edges from 0 and 2, but only 1 -> 0 reaches row 0.
  GnnEncoderConfig config;
  config.arch = GnnArch::kGcn;
  config.num_layers = 1;
  Rng rng(16);
  const GnnPlan plan = GnnEncoder(config, &rng)
                           .Plan(3, {0, 1, 1, 2}, {1, 0, 2, 1}, {0});
  EXPECT_EQ(plan.rows, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.layers[0].degree, (std::vector<float>{2.0f, 3.0f}));
}

TEST(GnnPlanTest, OrderFollowsTheRequest) {
  GnnEncoderConfig config;
  config.num_layers = 1;
  Rng rng(17);
  const GnnPlan plan =
      GnnEncoder(config, &rng).Plan(4, {0, 3}, {3, 0}, {3, 0, 3});
  EXPECT_EQ(plan.layers[0].self, (std::vector<int>{0, 1}));
  EXPECT_EQ(plan.order, (std::vector<int>{1, 0, 1}));
}

// Forward on a few requested rows gives the same bytes as Forward on every
// row gathered at them, for every architecture and depth, with and without
// edge weights, at inference and under autograd. The graph is a random
// union with rows no request reaches and an isolated requested row; the
// request repeats a row and is out of order.
TEST(GnnEncoderTest, ForwardOnRowsMatchesEveryRowBitwise) {
  const int num_rows = 30, reached = 24, in_dim = 5;
  Rng rng(18);
  std::vector<int> src, dst;
  for (int e = 0; e < 70; ++e) {
    src.push_back(static_cast<int>(rng.UniformInt(reached)));
    dst.push_back(static_cast<int>(rng.UniformInt(reached)));
  }
  const std::vector<int> request = {17, 3, 9, 27, 3};
  const Tensor x = Tensor::Randn(num_rows, in_dim, &rng);
  std::vector<float> weights(src.size());
  for (float& w : weights) w = 0.1f + 0.8f * rng.UniformFloat();
  const Tensor w_all =
      Tensor::FromData(static_cast<int>(src.size()), 1, weights);
  for (GnnArch arch : {GnnArch::kSage, GnnArch::kGcn, GnnArch::kGat}) {
    for (int layers = 1; layers <= 3; ++layers) {
      for (const bool weighted : {false, true}) {
        for (const bool grad : {false, true}) {
          SCOPED_TRACE(std::string(GnnArchName(arch)) + " layers " +
                       std::to_string(layers) + (weighted ? " w" : "") +
                       (grad ? " grad" : ""));
          std::optional<NoGradGuard> no_grad;
          if (!grad) no_grad.emplace();
          GnnEncoderConfig config;
          config.arch = arch;
          config.in_dim = in_dim;
          config.hidden_dim = 9;
          config.out_dim = 7;
          config.num_layers = layers;
          Rng init(19);
          const GnnEncoder encoder(config, &init);
          const Tensor every = GatherRows(
              encoder.Forward(x, encoder.Plan(num_rows, src, dst,
                                              AllRows(num_rows)),
                              weighted ? w_all : Tensor()),
              request);
          const GnnPlan plan = encoder.Plan(num_rows, src, dst, request);
          EXPECT_LT(plan.rows.size(), static_cast<size_t>(num_rows));
          const Tensor trimmed = encoder.Forward(
              GatherRows(x, plan.rows), plan,
              weighted ? GatherRows(w_all, plan.edges) : Tensor());
          ASSERT_EQ(trimmed.rows(), every.rows());
          ASSERT_EQ(trimmed.cols(), every.cols());
          EXPECT_EQ(std::memcmp(trimmed.data().data(), every.data().data(),
                                every.data().size() * sizeof(float)),
                    0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace gp
