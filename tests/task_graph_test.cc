#include "core/task_graph.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"

namespace gp {
namespace {

TaskGraphConfig SmallConfig(int dim = 8) {
  TaskGraphConfig config;
  config.embedding_dim = dim;
  config.num_layers = 2;
  return config;
}

TEST(TaskGraphTest, OutputShapes) {
  Rng rng(1);
  TaskGraphNet net(SmallConfig(), &rng);
  Tensor prompts = Tensor::Randn(6, 8, &rng);
  Tensor queries = Tensor::Randn(4, 8, &rng);
  const auto out = net.Forward(prompts, {0, 0, 1, 1, 2, 2}, queries, 3);
  EXPECT_EQ(out.query_scores.rows(), 4);
  EXPECT_EQ(out.query_scores.cols(), 3);
  EXPECT_EQ(out.query_embeddings.rows(), 4);
  EXPECT_EQ(out.label_embeddings.rows(), 3);
}

TEST(TaskGraphTest, ScoresAreBoundedByTemperature) {
  Rng rng(2);
  TaskGraphNet net(SmallConfig(), &rng);
  Tensor prompts = Tensor::Randn(4, 8, &rng);
  Tensor queries = Tensor::Randn(2, 8, &rng);
  const auto out = net.Forward(prompts, {0, 0, 1, 1}, queries, 2);
  for (float s : out.query_scores.data()) {
    EXPECT_LE(std::abs(s), net.config().score_temperature + 1e-4f);
  }
}

TEST(TaskGraphTest, GradientsReachAllParameters) {
  Rng rng(3);
  TaskGraphNet net(SmallConfig(), &rng);
  Tensor prompts = Tensor::Randn(4, 8, &rng);
  Tensor queries = Tensor::Randn(2, 8, &rng);
  const auto out = net.Forward(prompts, {0, 0, 1, 1}, queries, 2);
  Backward(CrossEntropyWithLogits(out.query_scores, {0, 1}));
  int with_grad = 0;
  for (const auto& p : net.Parameters()) {
    if (!p.grad().empty()) ++with_grad;
  }
  EXPECT_EQ(with_grad, static_cast<int>(net.Parameters().size()));
}

TEST(TaskGraphTest, GradientsFlowToPromptAndQueryEmbeddings) {
  Rng rng(4);
  TaskGraphNet net(SmallConfig(), &rng);
  Tensor prompts = Tensor::Randn(4, 8, &rng, 1.0f, /*requires_grad=*/true);
  Tensor queries = Tensor::Randn(2, 8, &rng, 1.0f, /*requires_grad=*/true);
  const auto out = net.Forward(prompts, {0, 0, 1, 1}, queries, 2);
  Backward(CrossEntropyWithLogits(out.query_scores, {0, 1}));
  EXPECT_FALSE(prompts.grad().empty());
  EXPECT_FALSE(queries.grad().empty());
}

TEST(TaskGraphTest, LearnsSimplePromptMatching) {
  // Prompts of class 0 sit near +e1, class 1 near -e1. Queries near the
  // same poles. A few steps of training must classify queries correctly.
  Rng rng(5);
  TaskGraphNet net(SmallConfig(8), &rng);
  Adam optimizer(net.Parameters(), 0.01f);

  auto make_batch = [&](Rng* r, Tensor* prompts, Tensor* queries,
                        std::vector<int>* labels) {
    *prompts = Tensor::Zeros(6, 8);
    for (int p = 0; p < 6; ++p) {
      const int cls = p < 3 ? 0 : 1;
      for (int c = 0; c < 8; ++c) {
        prompts->at(p, c) = r->Normal() * 0.1f;
      }
      prompts->at(p, 0) += cls == 0 ? 1.0f : -1.0f;
    }
    *queries = Tensor::Zeros(4, 8);
    labels->clear();
    for (int q = 0; q < 4; ++q) {
      const int cls = q % 2;
      labels->push_back(cls);
      for (int c = 0; c < 8; ++c) queries->at(q, c) = r->Normal() * 0.1f;
      queries->at(q, 0) += cls == 0 ? 1.0f : -1.0f;
    }
  };

  Rng data_rng(6);
  for (int step = 0; step < 60; ++step) {
    Tensor prompts, queries;
    std::vector<int> labels;
    make_batch(&data_rng, &prompts, &queries, &labels);
    optimizer.ZeroGrad();
    const auto out =
        net.Forward(prompts, {0, 0, 0, 1, 1, 1}, queries, 2);
    Backward(CrossEntropyWithLogits(out.query_scores, labels));
    optimizer.Step();
  }

  // Fresh evaluation batch.
  Tensor prompts, queries;
  std::vector<int> labels;
  make_batch(&data_rng, &prompts, &queries, &labels);
  NoGradGuard no_grad;
  const auto out = net.Forward(prompts, {0, 0, 0, 1, 1, 1}, queries, 2);
  const auto pred = ArgmaxRows(out.query_scores);
  int correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) correct += pred[i] == labels[i];
  EXPECT_GE(correct, 3);
}

TEST(TaskGraphTest, SingleQuerySingleClassPerPrompt) {
  Rng rng(7);
  TaskGraphNet net(SmallConfig(4), &rng);
  Tensor prompts = Tensor::Randn(2, 4, &rng);
  Tensor queries = Tensor::Randn(1, 4, &rng);
  const auto out = net.Forward(prompts, {0, 1}, queries, 2);
  EXPECT_EQ(out.query_scores.rows(), 1);
  EXPECT_EQ(out.query_scores.cols(), 2);
}

TEST(TaskGraphTest, ManyWaysShape) {
  Rng rng(8);
  TaskGraphNet net(SmallConfig(4), &rng);
  const int ways = 20;
  Tensor prompts = Tensor::Randn(ways * 3, 4, &rng);
  std::vector<int> labels;
  for (int c = 0; c < ways; ++c) {
    for (int k = 0; k < 3; ++k) labels.push_back(c);
  }
  Tensor queries = Tensor::Randn(5, 4, &rng);
  const auto out = net.Forward(prompts, labels, queries, ways);
  EXPECT_EQ(out.query_scores.cols(), ways);
}

// Every buffer Forward frees must be one the pool issued: releasing a
// foreign buffer subtracts bytes that were never added to
// alloc/live_bytes, so the counter drifts below what live tensors hold.
TEST(TaskGraphTest, ForwardLeavesPoolLiveBytesUnchanged) {
  Rng rng(10);
  TaskGraphNet net(SmallConfig(64), &rng);
  const int ways = 40;
  Tensor prompts = Tensor::Randn(ways * 3, 64, &rng);
  std::vector<int> labels;
  for (int c = 0; c < ways; ++c) {
    for (int k = 0; k < 3; ++k) labels.push_back(c);
  }
  Tensor queries = Tensor::Randn(4, 64, &rng);
  const int64_t before = PoolStatsSnapshot().live_bytes;
  ASSERT_GT(before, 0);  // the inputs and parameters are alive
  {
    NoGradGuard no_grad;
    const auto out = net.Forward(prompts, labels, queries, ways);
    EXPECT_EQ(out.query_scores.cols(), ways);
  }
  EXPECT_EQ(PoolStatsSnapshot().live_bytes, before);
}

// Inference keys each edge's message and attribute logit by (source node,
// pattern); autograd keeps one row per edge. The two forwards must give
// the same bits. The ReZero gates and message biases start at 0, which
// would hide the attention, so both are set nonzero.
void ExpectInferenceMatchesAutograd(int num_prompts, int num_queries,
                                    int ways, int dim, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << num_prompts << " prompts, "
                                  << num_queries << " queries, " << ways
                                  << " ways");
  Rng rng(seed);
  TaskGraphNet net(SmallConfig(dim), &rng);
  for (auto [name, param] : net.NamedParameters()) {
    if (!name.ends_with("gate") && !name.ends_with("message/bias")) continue;
    for (float& v : param.mutable_data()) v = rng.Normal();
  }
  Tensor prompts = Tensor::Randn(num_prompts, dim, &rng);
  std::vector<int> labels;
  for (int p = 0; p < num_prompts; ++p) labels.push_back(p % ways);
  Tensor queries = Tensor::Randn(num_queries, dim, &rng);

  const auto train = net.Forward(prompts, labels, queries, ways);
  NoGradGuard no_grad;
  const auto infer = net.Forward(prompts, labels, queries, ways);
  for (const auto& [a, b] :
       {std::pair{&infer.query_scores, &train.query_scores},
        std::pair{&infer.query_embeddings, &train.query_embeddings},
        std::pair{&infer.label_embeddings, &train.label_embeddings}}) {
    ASSERT_EQ(a->data().size(), b->data().size());
    for (size_t i = 0; i < a->data().size(); ++i) {
      EXPECT_EQ(a->data()[i], b->data()[i]) << "index " << i;
    }
  }
}

TEST(TaskGraphTest, InferenceForwardMatchesAutogradForward) {
  // eval_manyway's shape: 123 prompts over 40 classes, 4 queries, d = 64.
  ExpectInferenceMatchesAutograd(123, 4, 40, 64, 11);
  // One class: every prompt edge is a true-label edge.
  ExpectInferenceMatchesAutograd(5, 3, 1, 8, 12);
  // One query.
  ExpectInferenceMatchesAutograd(9, 1, 3, 8, 13);
}

TEST(TaskGraphTest, MismatchedLabelSizeDies) {
  Rng rng(9);
  TaskGraphNet net(SmallConfig(4), &rng);
  Tensor prompts = Tensor::Randn(2, 4, &rng);
  Tensor queries = Tensor::Randn(1, 4, &rng);
  EXPECT_DEATH(net.Forward(prompts, {0}, queries, 2), "Check failed");
}

}  // namespace
}  // namespace gp
