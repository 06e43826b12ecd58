// SIMD dispatch correctness: AVX2 distance kernels vs the scalar
// bitwise-pinned reference, the bitwise-identity contract of the GEMM
// panel and the autograd GEMM backward kernels, the quantized
// candidate-pass kernels, and the CosineFromParts relative
// degenerate-norm guard (DESIGN.md §10).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/quantizer.h"
#include "tensor/ops.h"
#include "util/cpuid.h"
#include "util/rng.h"

namespace gp {
namespace {

// Every test restores the process dispatch level it found: the suite's
// other binaries assume the level is constant for the process lifetime.
class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = ActiveSimdLevel(); }
  void TearDown() override { SetSimdLevel(saved_); }
  SimdLevel saved_ = SimdLevel::kScalar;
};

std::vector<float> RandomVec(Rng* rng, int n, float scale = 1.0f) {
  std::vector<float> v(n);
  for (int i = 0; i < n; ++i) v[i] = rng->Normal(0.0f, scale);
  return v;
}

// Sizes that exercise full 16-float blocks, the 8-float half-block, and
// every scalar-tail length.
const int kSizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 100, 257};

TEST_F(SimdKernelsTest, ParseSimdLevelNames) {
  EXPECT_EQ(ParseSimdLevel("off").value(), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevel("scalar").value(), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevel("avx2").value(), SimdLevel::kAvx2);
  EXPECT_EQ(ParseSimdLevel("auto").value(), DetectedSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("sse9").ok());
}

TEST_F(SimdKernelsTest, SetSimdLevelDrivesDispatchBit) {
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_FALSE(Avx2Enabled());
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdLevel(SimdLevel::kAvx2);  // clamped to detected
  EXPECT_EQ(Avx2Enabled(), DetectedSimdLevel() == SimdLevel::kAvx2);
}

// The --simd=off contract: with scalar forced, every kernel must equal the
// ascending-index double-accumulation loop bit for bit.
TEST_F(SimdKernelsTest, ScalarIsBitwiseAscendingIndexReference) {
  SetSimdLevel(SimdLevel::kScalar);
  Rng rng(11);
  for (int n : kSizes) {
    const std::vector<float> a = RandomVec(&rng, n);
    const std::vector<float> b = RandomVec(&rng, n);
    double dot = 0.0, na = 0.0, l2 = 0.0, l1 = 0.0;
    for (int i = 0; i < n; ++i) {
      dot += static_cast<double>(a[i]) * b[i];
      na += static_cast<double>(a[i]) * a[i];
      const double d = static_cast<double>(a[i]) - b[i];
      l2 += d * d;
      l1 += std::abs(d);
    }
    EXPECT_EQ(DotRaw(a.data(), b.data(), n), dot);
    EXPECT_EQ(SquaredNormRaw(a.data(), n), na);
    EXPECT_EQ(SquaredEuclideanRaw(a.data(), b.data(), n), l2);
    EXPECT_EQ(NegEuclideanRaw(a.data(), b.data(), n),
              -static_cast<float>(std::sqrt(l2)));
    EXPECT_EQ(NegManhattanRaw(a.data(), b.data(), n),
              -static_cast<float>(l1));
  }
}

// AVX2 distance kernels regroup the sum into 4 double lanes, so they may
// differ from scalar — but only in the last ULPs. The documented bound:
// relative error <= 4 double ULPs per accumulated term is far looser than
// reality; we pin 1e-12 relative (+1e-300 absolute for exact zeros).
TEST_F(SimdKernelsTest, Avx2MatchesScalarWithinUlps) {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  Rng rng(12);
  for (int n : kSizes) {
    const std::vector<float> a = RandomVec(&rng, n);
    const std::vector<float> b = RandomVec(&rng, n);

    SetSimdLevel(SimdLevel::kScalar);
    const double dot_s = DotRaw(a.data(), b.data(), n);
    const double norm_s = SquaredNormRaw(a.data(), n);
    const double l2_s = SquaredEuclideanRaw(a.data(), b.data(), n);
    const float l1_s = NegManhattanRaw(a.data(), b.data(), n);

    SetSimdLevel(SimdLevel::kAvx2);
    const double dot_v = DotRaw(a.data(), b.data(), n);
    const double norm_v = SquaredNormRaw(a.data(), n);
    const double l2_v = SquaredEuclideanRaw(a.data(), b.data(), n);
    const float l1_v = NegManhattanRaw(a.data(), b.data(), n);

    const auto close = [](double x, double y) {
      const double scale = std::max(std::abs(x), std::abs(y));
      return std::abs(x - y) <= 1e-12 * scale + 1e-300;
    };
    EXPECT_TRUE(close(dot_s, dot_v)) << "dot n=" << n;
    EXPECT_TRUE(close(norm_s, norm_v)) << "norm n=" << n;
    EXPECT_TRUE(close(l2_s, l2_v)) << "l2 n=" << n;
    EXPECT_TRUE(close(l1_s, l1_v)) << "l1 n=" << n;
    // Norms and distances keep their sign/zero structure exactly.
    EXPECT_GE(norm_v, 0.0);
    EXPECT_GE(l2_v, 0.0);
    EXPECT_LE(l1_v, 0.0f);
  }
  // Self-distance is exactly zero in both modes (no cancellation noise).
  const std::vector<float> a = RandomVec(&rng, 64);
  SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_EQ(SquaredEuclideanRaw(a.data(), a.data(), 64), 0.0);
  EXPECT_EQ(NegManhattanRaw(a.data(), a.data(), 64), 0.0f);
}

// The GEMM panel is the exception to the ULP story: its vectorization is
// elementwise (independent j-lane accumulators, explicit mul-then-add, no
// FMA contraction), so AVX2 output must be bitwise identical to scalar —
// this is what keeps the golden pins level-independent.
TEST_F(SimdKernelsTest, GemmBitwiseIdenticalAcrossLevels) {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  Rng rng(13);
  // Shapes crossing the 128-col panel and 256-k block boundaries plus
  // ragged tails; dense and one-hot A to exercise both skip_zeros arms.
  const int shapes[][3] = {
      {3, 5, 7}, {2, 300, 150}, {4, 256, 128}, {1, 257, 129}, {5, 64, 200}};
  for (const auto& shape : shapes) {
    const int rows = shape[0], inner = shape[1], cols = shape[2];
    std::vector<float> a = RandomVec(&rng, rows * inner);
    const std::vector<float> b = RandomVec(&rng, inner * cols);
    for (int onehot = 0; onehot < 2; ++onehot) {
      if (onehot) {
        std::fill(a.begin(), a.end(), 0.0f);
        for (int r = 0; r < rows; ++r) {
          a[r * inner + static_cast<int>(rng.UniformInt(inner))] = 1.0f;
        }
      }
      for (const bool skip_zeros : {true, false}) {
        std::vector<float> out_scalar(rows * cols, 0.25f);
        std::vector<float> out_avx2 = out_scalar;
        SetSimdLevel(SimdLevel::kScalar);
        internal::GemmAccumulate(a.data(), b.data(), out_scalar.data(), rows,
                                 inner, cols, skip_zeros);
        SetSimdLevel(SimdLevel::kAvx2);
        internal::GemmAccumulate(a.data(), b.data(), out_avx2.data(), rows,
                                 inner, cols, skip_zeros);
        EXPECT_EQ(0, std::memcmp(out_scalar.data(), out_avx2.data(),
                                 out_scalar.size() * sizeof(float)))
            << rows << "x" << inner << "x" << cols
            << " skip_zeros=" << skip_zeros << " onehot=" << onehot;
      }
    }
  }
}

// Operands and starting grads of one autograd GEMM backward call.
struct GemmGradCase {
  int rows = 0, inner = 0, cols = 0;
  std::vector<float> g, a, b, da, db;
};

// Random operands and nonzero starting grads, with about one entry in
// eight of each replaced by +0 or -0; `onehot` makes each row of A one-hot
// instead, like the label matrices the task graph multiplies.
GemmGradCase RandomGemmGradCase(Rng* rng, int rows, int inner, int cols,
                                bool onehot) {
  GemmGradCase c;
  c.rows = rows;
  c.inner = inner;
  c.cols = cols;
  c.g = RandomVec(rng, rows * cols);
  c.a = RandomVec(rng, rows * inner);
  c.b = RandomVec(rng, inner * cols);
  c.da = RandomVec(rng, rows * inner);
  c.db = RandomVec(rng, inner * cols);
  for (std::vector<float>* v : {&c.g, &c.a, &c.b, &c.da, &c.db}) {
    for (float& x : *v) {
      const uint64_t draw = rng->UniformInt(16);
      if (draw == 0) x = 0.0f;
      if (draw == 1) x = -0.0f;
    }
  }
  if (onehot) {
    std::fill(c.a.begin(), c.a.end(), 0.0f);
    for (int r = 0; r < rows; ++r) {
      c.a[r * inner + static_cast<int>(rng->UniformInt(inner))] = 1.0f;
    }
  }
  return c;
}

// dA and dW after one backward call at `level`.
struct GemmGrads {
  std::vector<float> da, db;
};

GemmGrads GemmGradAt(SimdLevel level, const GemmGradCase& c) {
  SetSimdLevel(level);
  GemmGrads out{c.da, c.db};
  internal::GemmGradAccumulate(c.g.data(), c.a.data(), c.b.data(),
                               out.da.data(), out.db.data(), c.rows, c.inner,
                               c.cols);
  return out;
}

bool SameBits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

bool AnyNan(const std::vector<float>& v) {
  return std::any_of(v.begin(), v.end(), [](float x) { return std::isnan(x); });
}

// The autograd GEMM backward kernels keep the scalar loops' per-element
// order (dA lanes over k, each summing ascending j from +0 before one add
// into dA; dW lanes over j, ascending i with the zero skip), mul then add
// without FMA, so AVX2 must match scalar bit for bit, signed zeros and
// NaNs included.
TEST_F(SimdKernelsTest, GemmGradBitwiseIdenticalAcrossLevels) {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  Rng rng(23);
  // The pretrain workload's hot shapes (rows x inner x cols; the first
  // two span several of dW's 512-row column blocks), then ragged ones
  // that reach dA's 32- and 8-lane k blocks, dW's 64-, 32- and 8-lane j
  // panels (45 = 32 + 8 + 5) and both kernels' scalar tails.
  std::vector<std::array<int, 3>> shapes = {
      {570, 64, 64}, {1200, 128, 64}, {200, 68, 64}};
  for (const int rows : {1, 9}) {
    for (const int inner : {1, 7, 33, 45, 68}) {
      for (const int cols : {1, 5, 45, 65, 129}) {
        shapes.push_back({rows, inner, cols});
      }
    }
  }
  for (const auto& [rows, inner, cols] : shapes) {
    for (const bool onehot : {false, true}) {
      const GemmGradCase c = RandomGemmGradCase(&rng, rows, inner, cols,
                                                onehot);
      const GemmGrads scalar = GemmGradAt(SimdLevel::kScalar, c);
      const GemmGrads avx2 = GemmGradAt(SimdLevel::kAvx2, c);
      EXPECT_TRUE(SameBits(scalar.da, avx2.da))
          << "dA " << rows << "x" << inner << "x" << cols
          << " onehot=" << onehot;
      EXPECT_TRUE(SameBits(scalar.db, avx2.db))
          << "dW " << rows << "x" << inner << "x" << cols
          << " onehot=" << onehot;
    }
  }

  // Non-finite operands, placed in a vector lane and in the scalar tail
  // of each kernel (inner 33 = 32 + 1, cols 65 = 64 + 1).
  const int rows = 5, inner = 33, cols = 65;
  GemmGradCase c = RandomGemmGradCase(&rng, rows, inner, cols, false);
  const float inf = std::numeric_limits<float>::infinity();
  auto at = [](std::vector<float>& m, int ld, int r, int col) -> float& {
    return m[static_cast<size_t>(r) * ld + col];
  };
  // Inf in B where G is zero: dA has no zero skip, so 0 * Inf makes
  // dA[i][k] NaN at both levels.
  const int nan_da[][3] = {{1, 3, 10}, {2, 32, 64}};  // {i, k, j}
  for (const auto& [i, k, j] : nan_da) {
    at(c.b, cols, k, j) = inf;
    at(c.g, cols, i, j) = 0.0f;
  }
  // Inf in G where A is zero: dW skips zero A entries, so no NaN may
  // appear in dW at either level (one Inf per G column, so no Inf - Inf).
  const int skip_db[][3] = {{3, 5, 20}, {4, 32, 64}};  // {i, k, j}
  for (const auto& [i, k, j] : skip_db) {
    at(c.g, cols, i, j) = inf;
    at(c.a, inner, i, k) = 0.0f;
  }
  const GemmGrads scalar = GemmGradAt(SimdLevel::kScalar, c);
  const GemmGrads avx2 = GemmGradAt(SimdLevel::kAvx2, c);
  EXPECT_TRUE(SameBits(scalar.da, avx2.da));
  EXPECT_TRUE(SameBits(scalar.db, avx2.db));
  for (const GemmGrads* grads : {&scalar, &avx2}) {
    for (const auto& [i, k, j] : nan_da) {
      EXPECT_TRUE(std::isnan(grads->da[static_cast<size_t>(i) * inner + k]))
          << "dA[" << i << "][" << k << "]";
    }
    EXPECT_FALSE(AnyNan(grads->db));
  }
}

// Quantized candidate-pass kernels accumulate in float (they only rank
// candidates ahead of an exact re-rank), so the AVX2-vs-scalar bound is
// looser: relative 1e-4.
TEST_F(SimdKernelsTest, QuantizedKernelsMatchScalar) {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  Rng rng(14);
  for (int n : kSizes) {
    std::vector<uint8_t> code(n);
    for (int i = 0; i < n; ++i) {
      code[i] = static_cast<uint8_t>(rng.UniformInt(256));
    }
    const std::vector<float> qs = RandomVec(&rng, n, 0.1f);
    const std::vector<float> r = RandomVec(&rng, n);
    std::vector<float> step(n);
    for (int i = 0; i < n; ++i) step[i] = rng.UniformFloat() * 0.01f;

    const float dot_s = QuantizedDotRawScalar(code.data(), qs.data(), n);
    const float l2_s =
        QuantizedNegL2RawScalar(code.data(), r.data(), step.data(), n);
    const float l1_s =
        QuantizedNegL1RawScalar(code.data(), r.data(), step.data(), n);
    const float dot_v = simd::QuantizedDotRawAvx2(code.data(), qs.data(), n);
    const float l2_v =
        simd::QuantizedNegL2RawAvx2(code.data(), r.data(), step.data(), n);
    const float l1_v =
        simd::QuantizedNegL1RawAvx2(code.data(), r.data(), step.data(), n);

    const auto close = [](float x, float y) {
      const float scale = std::max(std::abs(x), std::abs(y));
      return std::abs(x - y) <= 1e-4f * scale + 1e-6f;
    };
    EXPECT_TRUE(close(dot_s, dot_v)) << "qdot n=" << n;
    EXPECT_TRUE(close(l2_s, l2_v)) << "ql2 n=" << n;
    EXPECT_TRUE(close(l1_s, l1_v)) << "ql1 n=" << n;
  }
}

// Regression for the relative degenerate-norm guard (satellite fix): the
// old absolute `denom < 1e-12` rule let a near-zero-norm row (pure
// quantization noise) return a full-magnitude cosine, and wrongly zeroed
// legitimately tiny same-scale pairs.
TEST(CosineFromPartsTest, CosineFromPartsRelativeGuard) {
  // Noise-scale row against a unit query: the noise direction carries no
  // significance — must be exactly 0, whatever the dot's sign.
  EXPECT_EQ(CosineFromParts(1e-9, 1e-9, 1.0), 0.0f);
  EXPECT_EQ(CosineFromParts(-1e-9, 1e-9, 1.0), 0.0f);
  // A legitimately tiny pair at the same scale keeps its true cosine (the
  // old absolute cutoff zeroed it: denom 1e-14 < 1e-12).
  EXPECT_NEAR(CosineFromParts(1e-14, 1e-7, 1e-7), 1.0f, 1e-6f);
  EXPECT_NEAR(CosineFromParts(-1e-14, 1e-7, 1e-7), -1.0f, 1e-6f);
  // Exact zeros and underflowing denominators are still guarded.
  EXPECT_EQ(CosineFromParts(0.0, 0.0, 1.0), 0.0f);
  EXPECT_EQ(CosineFromParts(0.0, 0.0, 0.0), 0.0f);
  EXPECT_EQ(CosineFromParts(1e-300, 1e-200, 1e-200), 0.0f);
  // Ordinary pairs are unchanged.
  EXPECT_FLOAT_EQ(CosineFromParts(0.5, 1.0, 1.0), 0.5f);
  EXPECT_FLOAT_EQ(CosineFromParts(2.0, 1.0, 4.0), 0.5f);
  // Poisoned norms propagate NaN for the degradation ladder.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(CosineFromParts(1.0, nan, 1.0)));
  EXPECT_TRUE(std::isnan(CosineFromParts(1.0, 1.0, nan)));
}

}  // namespace
}  // namespace gp
