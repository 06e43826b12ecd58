#include "nn/optimizer.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace gp {
namespace {

// Minimises f(x) = ||x - target||^2 and returns the final distance.
template <typename MakeOptimizer>
float MinimiseQuadratic(MakeOptimizer make, int steps) {
  Tensor x = Tensor::FromData(1, 2, {5.0f, -3.0f}, true);
  Tensor target = Tensor::FromData(1, 2, {1.0f, 2.0f});
  auto optimizer = make(std::vector<Tensor>{x});
  for (int i = 0; i < steps; ++i) {
    optimizer->ZeroGrad();
    Backward(SumAll(Square(Sub(x, target))));
    optimizer->Step();
  }
  return -NegEuclideanRaw(x.data().data(), target.data().data(), 2);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  const float dist = MinimiseQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Sgd>(std::move(p), 0.1f);
      },
      100);
  EXPECT_LT(dist, 1e-3f);
}

TEST(SgdTest, MomentumConverges) {
  const float dist = MinimiseQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Sgd>(std::move(p), 0.02f, 0.9f);
      },
      300);
  EXPECT_LT(dist, 1e-2f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  const float dist = MinimiseQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Adam>(std::move(p), 0.2f);
      },
      200);
  EXPECT_LT(dist, 1e-2f);
}

TEST(AdamWTest, ConvergesOnQuadratic) {
  const float dist = MinimiseQuadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<AdamW>(std::move(p), 0.2f, 1e-4f);
      },
      200);
  EXPECT_LT(dist, 5e-2f);
}

TEST(AdamWTest, WeightDecayShrinksUnusedParameter) {
  // A parameter with zero gradient should still decay toward zero.
  Tensor unused = Tensor::FromData(1, 1, {10.0f}, true);
  unused.mutable_grad();  // allocate a zero grad buffer
  AdamW optimizer({unused}, /*learning_rate=*/0.1f, /*weight_decay=*/0.5f);
  for (int i = 0; i < 20; ++i) optimizer.Step();
  EXPECT_LT(std::abs(unused.item()), 10.0f * std::pow(1.0f - 0.05f, 19));
}

TEST(AdamTest, ClassicL2CouplesDecayThroughGradient) {
  Tensor x = Tensor::FromData(1, 1, {4.0f}, true);
  x.mutable_grad();
  Adam optimizer({x}, 0.1f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f,
                 /*decoupled_weight_decay=*/false);
  for (int i = 0; i < 30; ++i) optimizer.Step();
  EXPECT_LT(x.item(), 4.0f);
}

TEST(OptimizerTest, SkipsParametersWithoutGradients) {
  Tensor with_grad = Tensor::FromData(1, 1, {1.0f}, true);
  Tensor without = Tensor::FromData(1, 1, {2.0f}, true);
  Backward(Square(with_grad));
  Sgd optimizer({with_grad, without}, 0.1f);
  optimizer.Step();
  EXPECT_EQ(without.item(), 2.0f);  // untouched
  EXPECT_LT(with_grad.item(), 1.0f);
}

TEST(OptimizerTest, ClipGradNormRescales) {
  Tensor x = Tensor::FromData(1, 2, {0.0f, 0.0f}, true);
  auto& grad = x.mutable_grad();
  grad[0] = 3.0f;
  grad[1] = 4.0f;  // norm 5
  Sgd optimizer({x}, 0.1f);
  const float before = optimizer.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(before, 5.0f);
  EXPECT_NEAR(x.grad()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], 0.8f, 1e-5f);
}

TEST(OptimizerTest, ClipBelowThresholdIsNoop) {
  Tensor x = Tensor::FromData(1, 1, {0.0f}, true);
  x.mutable_grad()[0] = 0.5f;
  Sgd optimizer({x}, 0.1f);
  optimizer.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(x.grad()[0], 0.5f);
}

TEST(OptimizerTest, ZeroGradZeroesAll) {
  Tensor x = Tensor::FromData(1, 1, {1.0f}, true);
  Backward(Square(x));
  Sgd optimizer({x}, 0.1f);
  optimizer.ZeroGrad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

TEST(OptimizerTest, LearningRateMutable) {
  Sgd optimizer({}, 0.1f);
  optimizer.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(optimizer.learning_rate(), 0.01f);
}

}  // namespace
}  // namespace gp
