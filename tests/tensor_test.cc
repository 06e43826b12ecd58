#include "tensor/tensor.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace gp {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(t.at(r, c), 0.0f);
  }
}

TEST(TensorTest, FromDataRoundTrips) {
  Tensor t = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, OneHot) {
  Tensor t = Tensor::OneHot({2, 0}, 3);
  EXPECT_EQ(t.at(0, 2), 1.0f);
  EXPECT_EQ(t.at(0, 0), 0.0f);
  EXPECT_EQ(t.at(1, 0), 1.0f);
}

TEST(TensorTest, XavierWithinLimit) {
  Rng rng(3);
  Tensor t = Tensor::Xavier(10, 20, &rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  for (float v : t.data()) {
    EXPECT_LE(std::abs(v), limit + 1e-6f);
  }
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(5);
  Tensor t = Tensor::Randn(100, 100, &rng, 2.0f);
  double sum = 0, sq = 0;
  for (float v : t.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / t.size()), 2.0, 0.05);
}

TEST(TensorTest, DetachSharesNoHistory) {
  Tensor a = Tensor::FromData(1, 2, {1, 2}, /*requires_grad=*/true);
  Tensor b = Add(a, a);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_TRUE(d.impl()->parents.empty());
  EXPECT_EQ(d.at(0, 0), 2.0f);
  // Mutating the detached copy leaves the original untouched.
  d.at(0, 0) = 99.0f;
  EXPECT_EQ(b.at(0, 0), 2.0f);
}

TEST(TensorTest, CloneKeepsRequiresGrad) {
  Tensor a = Tensor::FromData(1, 1, {3}, true);
  Tensor c = a.Clone();
  EXPECT_TRUE(c.requires_grad());
  EXPECT_EQ(c.item(), 3.0f);
}

TEST(TensorTest, RowExtraction) {
  Tensor t = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.Row(1), (std::vector<float>{4, 5, 6}));
}

TEST(TensorTest, NormIsFrobenius) {
  Tensor t = Tensor::FromData(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(t.Norm(), 5.0f);
}

TEST(TensorTest, ItemRequiresScalar) {
  Tensor t = Tensor::FromData(1, 1, {7});
  EXPECT_EQ(t.item(), 7.0f);
  Tensor big = Tensor::Zeros(2, 2);
  EXPECT_DEATH(big.item(), "Check failed");
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t = Tensor::Zeros(3, 5);
  const std::string s = t.ToString(4);
  EXPECT_NE(s.find("Tensor(3x5)"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// ---------------------------------------------------------- forward values

TEST(OpsTest, AddBroadcastRow) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor row = Tensor::FromData(1, 2, {10, 20});
  Tensor out = Add(a, row);
  EXPECT_EQ(out.at(0, 0), 11.0f);
  EXPECT_EQ(out.at(1, 1), 24.0f);
}

TEST(OpsTest, AddBroadcastColAndScalar) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor col = Tensor::FromData(2, 1, {100, 200});
  Tensor out = Add(a, col);
  EXPECT_EQ(out.at(0, 1), 102.0f);
  EXPECT_EQ(out.at(1, 0), 203.0f);
  Tensor s = Tensor::FromData(1, 1, {5});
  EXPECT_EQ(Add(a, s).at(1, 1), 9.0f);
}

TEST(OpsTest, MatMulMatchesManual) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor out = MatMul(a, b);
  EXPECT_EQ(out.at(0, 0), 58.0f);
  EXPECT_EQ(out.at(0, 1), 64.0f);
  EXPECT_EQ(out.at(1, 0), 139.0f);
  EXPECT_EQ(out.at(1, 1), 154.0f);
}

TEST(OpsTest, TransposeValues) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float total = 0;
    for (int c = 0; c < 3; ++c) total += s.at(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_GT(s.at(0, 2), s.at(0, 0));
}

TEST(OpsTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a = Tensor::FromData(1, 2, {1000.0f, 1001.0f});
  Tensor s = Softmax(a);
  EXPECT_NEAR(s.at(0, 1), 1.0f / (1.0f + std::exp(-1.0f)), 1e-5f);
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor a = Tensor::FromData(1, 3, {0.3f, -1.2f, 2.0f});
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(ls.at(0, c), std::log(s.at(0, c)), 1e-5f);
  }
}

TEST(OpsTest, CrossEntropyOfUniformLogits) {
  Tensor logits = Tensor::Zeros(4, 5);
  Tensor loss = CrossEntropyWithLogits(logits, {0, 1, 2, 3});
  EXPECT_NEAR(loss.item(), std::log(5.0f), 1e-5f);
}

TEST(OpsTest, GatherAndScatterRoundTrip) {
  Tensor a = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  Tensor s = ScatterAddRows(g, {0, 0, 1}, 2);
  EXPECT_EQ(s.at(0, 0), 6.0f);   // rows 5,6 + 1,2 -> first row 5+1
  EXPECT_EQ(s.at(0, 1), 8.0f);
  EXPECT_EQ(s.at(1, 0), 5.0f);
}

TEST(OpsTest, ConcatColsAndRows) {
  Tensor a = Tensor::FromData(2, 1, {1, 2});
  Tensor b = Tensor::FromData(2, 2, {3, 4, 5, 6});
  Tensor cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_EQ(cc.at(1, 2), 6.0f);
  Tensor cr = ConcatRows({a, a});
  EXPECT_EQ(cr.rows(), 4);
  EXPECT_EQ(cr.at(3, 0), 2.0f);
}

TEST(OpsTest, SliceRows) {
  Tensor a = Tensor::FromData(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(a, 1, 2);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.at(0, 0), 3.0f);
  EXPECT_EQ(s.at(1, 1), 6.0f);
}

TEST(OpsTest, RowScale) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor w = Tensor::FromData(2, 1, {10, 0.5});
  Tensor out = RowScale(a, w);
  EXPECT_EQ(out.at(0, 1), 20.0f);
  EXPECT_EQ(out.at(1, 0), 1.5f);
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(SumAll(a).item(), 21.0f);
  EXPECT_NEAR(MeanAll(a).item(), 3.5f, 1e-6f);
  Tensor sr = SumRows(a);
  EXPECT_EQ(sr.rows(), 1);
  EXPECT_EQ(sr.at(0, 0), 5.0f);
  Tensor sc = SumCols(a);
  EXPECT_EQ(sc.cols(), 1);
  EXPECT_EQ(sc.at(1, 0), 15.0f);
  Tensor mr = MeanRows(a);
  EXPECT_NEAR(mr.at(0, 2), 4.5f, 1e-6f);
}

TEST(OpsTest, RowL2NormalizeUnitNorm) {
  Tensor a = Tensor::FromData(2, 2, {3, 4, 0, 0});
  Tensor n = RowL2Normalize(a);
  EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-5f);
  // Zero rows stay finite.
  EXPECT_EQ(n.at(1, 0), 0.0f);
}

TEST(OpsTest, SegmentSoftmaxPerSegment) {
  Tensor a = Tensor::FromData(4, 1, {1, 1, 2, 0});
  Tensor s = SegmentSoftmax(a, {0, 0, 1, 1}, 2);
  EXPECT_NEAR(s.at(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(s.at(1, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(s.at(2, 0) + s.at(3, 0), 1.0f, 1e-5f);
  EXPECT_GT(s.at(2, 0), s.at(3, 0));
}

TEST(OpsTest, SegmentMeanRows) {
  Tensor a = Tensor::FromData(3, 2, {1, 2, 3, 4, 10, 20});
  Tensor m = SegmentMeanRows(a, {0, 0, 1}, 3);
  EXPECT_EQ(m.at(0, 0), 2.0f);
  EXPECT_EQ(m.at(0, 1), 3.0f);
  EXPECT_EQ(m.at(1, 0), 10.0f);
  // Empty segment -> zero row.
  EXPECT_EQ(m.at(2, 0), 0.0f);
}

TEST(OpsTest, DropoutIdentityWhenEval) {
  Rng rng(1);
  Tensor a = Tensor::FromData(1, 4, {1, 2, 3, 4});
  Tensor out = Dropout(a, 0.5f, &rng, /*training=*/false);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(out.at(0, c), a.at(0, c));
}

TEST(OpsTest, DropoutScalesSurvivors) {
  Rng rng(1);
  Tensor a = Tensor::Full(1, 1000, 1.0f);
  Tensor out = Dropout(a, 0.5f, &rng, /*training=*/true);
  int zeros = 0;
  for (float v : out.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 2.0f, 1e-6f);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.07);
}

TEST(OpsTest, ArgmaxRows) {
  Tensor a = Tensor::FromData(2, 3, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(ArgmaxRows(a), (std::vector<int>{1, 0}));
}

TEST(OpsTest, ActivationValues) {
  Tensor a = Tensor::FromData(1, 3, {-1, 0, 2});
  EXPECT_EQ(Relu(a).at(0, 0), 0.0f);
  EXPECT_EQ(Relu(a).at(0, 2), 2.0f);
  EXPECT_NEAR(LeakyRelu(a, 0.1f).at(0, 0), -0.1f, 1e-6f);
  EXPECT_NEAR(Sigmoid(a).at(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a).at(0, 2), std::tanh(2.0f), 1e-6f);
  EXPECT_NEAR(Exp(a).at(0, 2), std::exp(2.0f), 1e-4f);
  EXPECT_NEAR(Square(a).at(0, 0), 1.0f, 1e-6f);
}

TEST(OpsTest, SigmoidSaturationIsFinite) {
  Tensor a = Tensor::FromData(1, 2, {-500.0f, 500.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.at(0, 1), 1.0f, 1e-6f);
}

TEST(OpsTest, MismatchedShapesDie) {
  Tensor a = Tensor::Zeros(2, 3);
  Tensor b = Tensor::Zeros(3, 3);
  EXPECT_DEATH(Add(a, b), "incompatible shapes");
  EXPECT_DEATH(MatMul(a, a), "Check failed");
}

}  // namespace
}  // namespace gp
