// AVX2 variants of the distance kernels (core/distance.h).
//
// Compiled with function-level target attributes — the TU itself builds
// with the portable baseline flags, so including these symbols never makes
// the binary require AVX2. They are only *called* when Avx2Enabled(), i.e.
// the util/cpuid.h probe found AVX2+FMA and --simd/GP_SIMD did not force
// scalar.
//
// Accuracy story (DESIGN.md §10): the float-input kernels convert lanes to
// double and run 4 independent 4-wide double accumulators (16 floats per
// iteration), reduced in a fixed order, with an ascending scalar tail.
// Versus the scalar ascending-index sum this regroups additions, so
// results can differ in the last ULPs; tests/simd_kernels_test.cc pins
// |simd - scalar| <= 1e-10 * (n + 1) * max_term for the double-returning
// kernels.

#include <cmath>

#include "core/distance.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GP_HAVE_AVX2_TARGET 1
#include <immintrin.h>
#else
#define GP_HAVE_AVX2_TARGET 0
#endif

namespace gp {
namespace simd {

#if GP_HAVE_AVX2_TARGET

#define GP_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace {

// Fixed-order reduction of a 4-lane double accumulator: lanes ascend, so
// the result is a pure function of the lane values (no shuffle-order
// surprises between compilers).
GP_TARGET_AVX2 inline double HSum(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

// Widens the low/high halves of 8 floats to two 4-wide doubles.
GP_TARGET_AVX2 inline __m256d LowPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
GP_TARGET_AVX2 inline __m256d HighPd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

}  // namespace

GP_TARGET_AVX2
double DotRawAvx2(const float* a, const float* b, int n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 af0 = _mm256_loadu_ps(a + i);
    const __m256 bf0 = _mm256_loadu_ps(b + i);
    const __m256 af1 = _mm256_loadu_ps(a + i + 8);
    const __m256 bf1 = _mm256_loadu_ps(b + i + 8);
    acc0 = _mm256_fmadd_pd(LowPd(af0), LowPd(bf0), acc0);
    acc1 = _mm256_fmadd_pd(HighPd(af0), HighPd(bf0), acc1);
    acc2 = _mm256_fmadd_pd(LowPd(af1), LowPd(bf1), acc2);
    acc3 = _mm256_fmadd_pd(HighPd(af1), HighPd(bf1), acc3);
  }
  double total =
      HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += static_cast<double>(a[i]) * b[i];
  return total;
}

GP_TARGET_AVX2
double SquaredNormRawAvx2(const float* a, int n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 af0 = _mm256_loadu_ps(a + i);
    const __m256 af1 = _mm256_loadu_ps(a + i + 8);
    const __m256d l0 = LowPd(af0), h0 = HighPd(af0);
    const __m256d l1 = LowPd(af1), h1 = HighPd(af1);
    acc0 = _mm256_fmadd_pd(l0, l0, acc0);
    acc1 = _mm256_fmadd_pd(h0, h0, acc1);
    acc2 = _mm256_fmadd_pd(l1, l1, acc2);
    acc3 = _mm256_fmadd_pd(h1, h1, acc3);
  }
  double total =
      HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) total += static_cast<double>(a[i]) * a[i];
  return total;
}

GP_TARGET_AVX2
double SquaredEuclideanRawAvx2(const float* a, const float* b, int n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 af0 = _mm256_loadu_ps(a + i);
    const __m256 bf0 = _mm256_loadu_ps(b + i);
    const __m256 af1 = _mm256_loadu_ps(a + i + 8);
    const __m256 bf1 = _mm256_loadu_ps(b + i + 8);
    const __m256d d0 = _mm256_sub_pd(LowPd(af0), LowPd(bf0));
    const __m256d d1 = _mm256_sub_pd(HighPd(af0), HighPd(bf0));
    const __m256d d2 = _mm256_sub_pd(LowPd(af1), LowPd(bf1));
    const __m256d d3 = _mm256_sub_pd(HighPd(af1), HighPd(bf1));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
    acc2 = _mm256_fmadd_pd(d2, d2, acc2);
    acc3 = _mm256_fmadd_pd(d3, d3, acc3);
  }
  double total =
      HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

GP_TARGET_AVX2
double ManhattanRawAvx2(const float* a, const float* b, int n) {
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 af0 = _mm256_loadu_ps(a + i);
    const __m256 bf0 = _mm256_loadu_ps(b + i);
    const __m256 af1 = _mm256_loadu_ps(a + i + 8);
    const __m256 bf1 = _mm256_loadu_ps(b + i + 8);
    acc0 = _mm256_add_pd(
        acc0, _mm256_and_pd(_mm256_sub_pd(LowPd(af0), LowPd(bf0)), abs_mask));
    acc1 = _mm256_add_pd(
        acc1, _mm256_and_pd(_mm256_sub_pd(HighPd(af0), HighPd(bf0)), abs_mask));
    acc2 = _mm256_add_pd(
        acc2, _mm256_and_pd(_mm256_sub_pd(LowPd(af1), LowPd(bf1)), abs_mask));
    acc3 = _mm256_add_pd(
        acc3, _mm256_and_pd(_mm256_sub_pd(HighPd(af1), HighPd(bf1)), abs_mask));
  }
  double total =
      HSum(_mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) {
    total += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  return total;
}

#undef GP_TARGET_AVX2

#else  // !GP_HAVE_AVX2_TARGET

// Non-x86 (or non-GNU) builds still need the symbols to link; they are
// unreachable because DetectedSimdLevel() is kScalar there, so delegate to
// the scalar paths for safety.

double DotRawAvx2(const float* a, const float* b, int n) {
  double dot = 0.0;
  for (int i = 0; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  return dot;
}

double SquaredNormRawAvx2(const float* a, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += static_cast<double>(a[i]) * a[i];
  return total;
}

double SquaredEuclideanRawAvx2(const float* a, const float* b, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    total += d * d;
  }
  return total;
}

double ManhattanRawAvx2(const float* a, const float* b, int n) {
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  return total;
}

#endif  // GP_HAVE_AVX2_TARGET

}  // namespace simd
}  // namespace gp
