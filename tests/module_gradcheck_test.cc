// End-to-end numeric gradient checks through composite modules: the
// convolution layers, the reconstruction-weighted encoder, and the task
// graph. These catch chain-rule mistakes that per-op checks cannot (e.g.
// wrong gradient routing across gather/scatter/segment compositions).

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "core/prompt_generator.h"
#include "core/task_graph.h"
#include "gnn/encoder.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp {
namespace {

// Checks d(fn)/d(param) against central differences on a subset of
// coordinates (full sweeps are slow for big modules).
void CheckParamGradient(const std::function<Tensor()>& fn, Tensor param,
                        int max_coords = 12, float tolerance = 3e-2f,
                        float eps = 2e-3f) {
  param.ZeroGrad();
  Tensor loss = fn();
  ASSERT_EQ(loss.size(), 1);
  Backward(loss);
  ASSERT_FALSE(param.grad().empty());
  const std::vector<float> analytic = param.grad();

  const int stride =
      std::max<int>(1, static_cast<int>(param.size()) / max_coords);
  for (int64_t i = 0; i < param.size(); i += stride) {
    const float original = param.mutable_data()[i];
    param.mutable_data()[i] = original + eps;
    const float up = fn().item();
    param.mutable_data()[i] = original - eps;
    const float down = fn().item();
    param.mutable_data()[i] = original;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::abs(numeric)))
        << "param coordinate " << i;
  }
}

// Fixed weighted-sum reduction so each output coordinate matters.
Tensor Reduce(const Tensor& out) {
  Rng rng(4242);
  return SumAll(Mul(out, Tensor::Randn(out.rows(), out.cols(), &rng)));
}

struct TinyGraphData {
  Tensor x = Tensor::FromData(4, 3,
                              {0.5f, -0.2f, 0.1f, 0.3f, 0.8f, -0.5f, -0.1f,
                               0.2f, 0.4f, 0.7f, -0.3f, 0.6f});
  std::vector<int> src = {0, 1, 1, 2, 2, 3};
  std::vector<int> dst = {1, 0, 2, 1, 3, 2};

  // A plan for `rows` of an encoder with `config`'s depth and arch.
  GnnPlan Plan(const GnnEncoderConfig& config,
               const std::vector<int>& rows) const {
    Rng rng(0);
    return GnnEncoder(config, &rng).Plan(x.rows(), src, dst, rows);
  }
  // One layer that computes every row.
  GnnLayerPlan Layer(GnnArch arch) const {
    GnnEncoderConfig config;
    config.arch = arch;
    config.num_layers = 1;
    return Plan(config, {0, 1, 2, 3}).layers[0];
  }
};

TEST(ModuleGradCheckTest, SageConvWeights) {
  Rng rng(1);
  SageConv conv(3, 2, &rng);
  TinyGraphData g;
  const GnnLayerPlan layer = g.Layer(GnnArch::kSage);
  Tensor w = Tensor::Full(6, 1, 0.7f);
  for (Tensor param : conv.Parameters()) {
    CheckParamGradient(
        [&]() { return Reduce(conv.Forward(g.x, layer, w)); }, param);
  }
}

TEST(ModuleGradCheckTest, SageConvEdgeWeights) {
  Rng rng(2);
  SageConv conv(3, 2, &rng);
  TinyGraphData g;
  const GnnLayerPlan layer = g.Layer(GnnArch::kSage);
  Tensor w = Tensor::Full(6, 1, 0.6f, /*requires_grad=*/true);
  CheckParamGradient(
      [&]() { return Reduce(conv.Forward(g.x, layer, w)); }, w);
}

TEST(ModuleGradCheckTest, GcnConvWeights) {
  Rng rng(3);
  GcnConv conv(3, 2, &rng);
  TinyGraphData g;
  const GnnLayerPlan layer = g.Layer(GnnArch::kGcn);
  for (Tensor param : conv.Parameters()) {
    CheckParamGradient(
        [&]() {
          return Reduce(conv.Forward(g.x, layer, Tensor()));
        },
        param);
  }
}

TEST(ModuleGradCheckTest, GatConvAttentionParams) {
  Rng rng(4);
  GatConv conv(3, 2, &rng);
  TinyGraphData g;
  const GnnLayerPlan layer = g.Layer(GnnArch::kGat);
  for (Tensor param : conv.Parameters()) {
    CheckParamGradient(
        [&]() {
          return Reduce(conv.Forward(g.x, layer, Tensor()));
        },
        param);
  }
}

TEST(ModuleGradCheckTest, TwoLayerEncoder) {
  Rng rng(5);
  GnnEncoderConfig config;
  config.in_dim = 3;
  config.hidden_dim = 4;
  config.out_dim = 2;
  config.num_layers = 2;
  GnnEncoder encoder(config, &rng);
  TinyGraphData g;
  // Check a couple of representative parameters (first and last).
  auto params = encoder.Parameters();
  ASSERT_GE(params.size(), 2u);
  const GnnPlan plan = g.Plan(config, {0, 1, 2, 3});
  for (Tensor param : {params.front(), params.back()}) {
    CheckParamGradient(
        [&]() { return Reduce(encoder.Forward(g.x, plan, Tensor())); },
        param);
  }
}

// A three-layer SAGE encoder read out at two rows, out of order: the
// trimmed layers' parameter and edge-weight gradients (the weights reach
// each layer's edges through the plan's weight rows).
TEST(ModuleGradCheckTest, ThreeLayerEncoderOnRequestedRows) {
  Rng rng(8);
  GnnEncoderConfig config;
  config.in_dim = 3;
  config.hidden_dim = 4;
  config.out_dim = 2;
  config.num_layers = 3;
  GnnEncoder encoder(config, &rng);
  TinyGraphData g;
  const GnnPlan plan = g.Plan(config, {3, 1});
  const Tensor x = GatherRows(g.x, plan.rows);
  Tensor w = Tensor::Full(static_cast<int>(plan.edges.size()), 1, 0.6f,
                          /*requires_grad=*/true);
  auto loss = [&]() { return Reduce(encoder.Forward(x, plan, w)); };
  auto params = encoder.Parameters();
  for (Tensor param : {params.front(), params.back()}) {
    CheckParamGradient(loss, param);
  }
  CheckParamGradient(loss, w);
}

TEST(ModuleGradCheckTest, TaskGraphScoresWrtPromptEmbeddings) {
  Rng rng(6);
  TaskGraphConfig config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  TaskGraphNet net(config, &rng);
  // Non-zero gates so attention actually participates.
  for (auto& [name, p] : net.NamedParameters()) {
    if (name.find("gate") != std::string::npos) p.mutable_data()[0] = 0.5f;
  }
  Tensor prompts = Tensor::Randn(4, 4, &rng, 1.0f, /*requires_grad=*/true);
  Tensor queries = Tensor::Randn(2, 4, &rng);
  const std::vector<int> labels = {0, 0, 1, 1};
  CheckParamGradient(
      [&]() {
        const auto out = net.Forward(prompts, labels, queries, 2);
        return CrossEntropyWithLogits(out.query_scores, {0, 1});
      },
      prompts, /*max_coords=*/16);
}

TEST(ModuleGradCheckTest, TaskGraphParameters) {
  Rng rng(7);
  TaskGraphConfig config;
  config.embedding_dim = 4;
  config.num_layers = 1;
  TaskGraphNet net(config, &rng);
  for (auto& [name, p] : net.NamedParameters()) {
    if (name.find("gate") != std::string::npos) p.mutable_data()[0] = 0.4f;
  }
  Tensor prompts = Tensor::Randn(4, 4, &rng);
  Tensor queries = Tensor::Randn(2, 4, &rng);
  const std::vector<int> labels = {0, 0, 1, 1};
  auto fn = [&]() {
    const auto out = net.Forward(prompts, labels, queries, 2);
    return CrossEntropyWithLogits(out.query_scores, {0, 1});
  };
  // Check a representative subset of parameters.
  const auto named = net.NamedParameters();
  for (const auto& [name, param] : named) {
    if (name.find("attn0/message/weight") != std::string::npos ||
        name.find("attn0/self/weight") != std::string::npos ||
        name.find("gate") != std::string::npos ||
        name.find("label_init") != std::string::npos) {
      CheckParamGradient(fn, param, /*max_coords=*/8);
    }
  }
}

TEST(ModuleGradCheckTest, ReconstructionMlpThroughFullGenerator) {
  // Gradient of the embedding loss wrt the reconstruction MLP — the
  // joint-training path of Sec. IV-A.
  Rng rng(8);
  DatasetBundle ds = MakeConceptNetSim(0.15, 9);
  PromptGeneratorConfig config;
  config.gnn.in_dim = ds.graph.feature_dim();
  config.gnn.hidden_dim = 4;
  config.gnn.out_dim = 4;
  config.sampler.max_nodes = 6;
  PromptGenerator generator(config, &rng);

  // Freeze the sampled subgraphs so fn() is deterministic.
  Rng sample_rng(10);
  std::vector<Subgraph> subgraphs = {
      generator.SampleForItem(ds, ds.train_items_by_class[0][0], &sample_rng),
      generator.SampleForItem(ds, ds.train_items_by_class[1][0],
                              &sample_rng)};
  auto fn = [&]() {
    return Reduce(generator.EmbedSubgraphs(GraphAdapter(ds.graph), subgraphs));
  };
  for (const auto& [name, param] : generator.NamedParameters()) {
    if (name.find("recon_mlp/layer0/weight") != std::string::npos) {
      CheckParamGradient(fn, param, /*max_coords=*/6);
    }
  }
}

}  // namespace
}  // namespace gp
