// Distance metrics and the raw-pointer similarity kernels shared by the
// Prompt Selector (Eq. 6) and the Prompt Augmenter cache scan (Eq. 9).
//
// Determinism contract: at SimdLevel::kScalar (GP_SIMD=off) every kernel
// sums its terms in ascending index order with double-precision
// accumulators, so a score computed
// through this header is bitwise identical no matter which call site
// computed it. At SimdLevel::kAvx2 (the default on capable CPUs) the same
// kernels run 4-lane double accumulators reduced in a fixed order: still
// deterministic run-to-run and thread-count-independent, but the lane
// regrouping can differ from scalar in the last ULPs (bounds pinned by
// tests/simd_kernels_test.cc; story in DESIGN.md §10). Dispatch is decided
// once per process via util/cpuid.h, never per call.

#ifndef GRAPHPROMPTER_CORE_DISTANCE_H_
#define GRAPHPROMPTER_CORE_DISTANCE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/tensor.h"
#include "util/cpuid.h"

namespace gp {

enum class DistanceMetric { kCosine, kEuclidean, kManhattan };

const char* DistanceMetricName(DistanceMetric metric);

// Similarity (higher = closer) between two embedding rows under `metric`.
// Distances are negated so all metrics are "larger is more similar".
float EmbeddingSimilarity(const Tensor& a, int row_a, const Tensor& b,
                          int row_b, DistanceMetric metric);

namespace simd {
// AVX2 kernel variants (core/distance_avx2.cc). Compiled with function
// target attributes so the translation unit stays portable; only reached
// when Avx2Enabled() — i.e. the CPU probe passed and --simd/GP_SIMD did
// not force scalar.
double DotRawAvx2(const float* a, const float* b, int n);
double SquaredNormRawAvx2(const float* a, int n);
double SquaredEuclideanRawAvx2(const float* a, const float* b, int n);
double ManhattanRawAvx2(const float* a, const float* b, int n);
}  // namespace simd

inline double DotRaw(const float* a, const float* b, int n) {
  if (Avx2Enabled()) return simd::DotRawAvx2(a, b, n);
  double dot = 0.0;
  for (int i = 0; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  return dot;
}

inline double SquaredNormRaw(const float* a, int n) {
  if (Avx2Enabled()) return simd::SquaredNormRawAvx2(a, n);
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += static_cast<double>(a[i]) * a[i];
  return total;
}

// Squared L2 distance (the Euclidean similarity kernel before its sqrt).
inline double SquaredEuclideanRaw(const float* a, const float* b, int n) {
  if (Avx2Enabled()) return simd::SquaredEuclideanRawAvx2(a, b, n);
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

// Combines a dot product and the two operand norms into a cosine score.
//
// The degenerate-norm guard is *relative*: a pair is scored 0 when the
// smaller norm is negligible against the larger (ratio <= 1e-6, i.e. the
// smaller vector's direction carries no reliable float significance at the
// pair's scale) or when the product underflows. A near-zero-norm row,
// whose remaining bits are rounding residue rather than a direction,
// therefore scores exactly 0 instead of a noise-signed ±O(1) cosine, while
// a pair of legitimately tiny vectors (both norms ~1e-7, ratio ~1) still
// gets its true cosine, which the old absolute `denom < 1e-12` cutoff
// wrongly zeroed. Regression-tested in tests/simd_kernels_test.cc
// (CosineFromPartsRelativeGuard).
inline float CosineFromParts(double dot, double norm_a, double norm_b) {
  if (std::isnan(norm_a) || std::isnan(norm_b)) {
    // Poisoned norms keep propagating so the degradation ladder sees them.
    return std::numeric_limits<float>::quiet_NaN();
  }
  const double lo = std::min(norm_a, norm_b);
  const double hi = std::max(norm_a, norm_b);
  const double denom = norm_a * norm_b;
  if (lo <= 1e-6 * hi || denom < std::numeric_limits<double>::min()) {
    return 0.0f;
  }
  return static_cast<float>(dot / denom);
}

inline float NegEuclideanRaw(const float* a, const float* b, int n) {
  return -static_cast<float>(std::sqrt(SquaredEuclideanRaw(a, b, n)));
}

inline float NegManhattanRaw(const float* a, const float* b, int n) {
  if (Avx2Enabled()) {
    return -static_cast<float>(simd::ManhattanRawAvx2(a, b, n));
  }
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  return -static_cast<float>(total);
}

inline float SimilarityRaw(const float* a, const float* b, int n,
                           DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kCosine:
      return CosineFromParts(DotRaw(a, b, n), std::sqrt(SquaredNormRaw(a, n)),
                             std::sqrt(SquaredNormRaw(b, n)));
    case DistanceMetric::kEuclidean:
      return NegEuclideanRaw(a, b, n);
    case DistanceMetric::kManhattan:
      return NegManhattanRaw(a, b, n);
  }
  return 0.0f;
}

// sqrt of each row's squared L2 norm (for cosine scoring): computed once
// per retrieval call instead of once per (prompt, query) pair.
std::vector<double> RowNorms(const Tensor& t);

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_DISTANCE_H_
