// AVX2 GEMM kernels (declared in tensor/ops.h, dispatched from
// tensor/ops.cc when Avx2Enabled()): the blocked forward row kernel and
// the two autograd backward kernels.
//
// Bitwise-identity contract: each kernel keeps its scalar counterpart's
// per-element sequence of IEEE operations and only spreads independent
// output elements over the 8 lanes of a register. Every update is an
// explicit mul THEN add, compiled without FMA (target("avx2") only), so
// the intermediate product is rounded to float exactly like the scalar
// expression, and no kernel reduces across lanes. The results therefore
// match the scalar loops in ops.cc bit for bit:
//   * GemmRowsAvx2 mirrors GemmRows — same k-blocking, the panel update
//     panel[j] += av * brow[j] over 8 j-lanes, ascending k per element.
//   * GemmGradAAvx2 mirrors GemmGradA's `acc` loop with the lanes over k:
//     each accumulator starts at +0, adds g[i][j] * B^T[j][k] in
//     ascending j with no zero skip, then is added once into dA.
//   * GemmGradBAvx2 mirrors GemmGradB's k-outer loop with the lanes over
//     j: each dB element adds av * g[i][j] in ascending i, skipping
//     av == 0 rows.
// DESIGN.md §9/§10.

#include <algorithm>
#include <cstdint>

#include "tensor/ops.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GP_HAVE_AVX2_TARGET 1
#include <immintrin.h>
#else
#define GP_HAVE_AVX2_TARGET 0
#endif

namespace gp {
namespace internal {

namespace {
// Must match ops.cc's blocking so the two paths share cache behavior; the
// bitwise contract holds at any tile size regardless.
constexpr int kGemmPanel = 128;
constexpr int kGemmKBlock = 256;
}  // namespace

#if GP_HAVE_AVX2_TARGET

__attribute__((target("avx2")))
void GemmRowsAvx2(const float* a, const float* b, float* out,
                  int64_t row_begin, int64_t row_end, int inner, int cols,
                  bool skip_zeros) {
  alignas(32) float panel[kGemmPanel];
  for (int kk = 0; kk < inner; kk += kGemmKBlock) {
    const int kend = std::min(inner, kk + kGemmKBlock);
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + static_cast<size_t>(i) * inner;
      float* orow = out + static_cast<size_t>(i) * cols;
      for (int jj = 0; jj < cols; jj += kGemmPanel) {
        const int width = std::min<int>(kGemmPanel, cols - jj);
        std::copy_n(orow + jj, width, panel);
        for (int k = kk; k < kend; ++k) {
          const float av = arow[k];
          if (skip_zeros && av == 0.0f) continue;
          const float* brow = b + static_cast<size_t>(k) * cols + jj;
          const __m256 vav = _mm256_set1_ps(av);
          int j = 0;
          for (; j + 8 <= width; j += 8) {
            const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(brow + j));
            _mm256_store_ps(panel + j,
                            _mm256_add_ps(_mm256_load_ps(panel + j), prod));
          }
          for (; j < width; ++j) panel[j] += av * brow[j];
        }
        std::copy_n(panel, width, orow + jj);
      }
    }
  }
}

namespace {

// Lanes [k, k + 8R) of dA row i: R accumulators from +0 over ascending j,
// each added once into dA.
template <int R>
__attribute__((target("avx2"))) inline void GradARowPanel(
    const float* grow, const float* bt, float* darow, int k, int inner,
    int cols) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (int j = 0; j < cols; ++j) {
    const __m256 gv = _mm256_set1_ps(grow[j]);
    const float* btrow = bt + static_cast<size_t>(j) * inner + k;
    for (int r = 0; r < R; ++r) {
      const __m256 prod = _mm256_mul_ps(gv, _mm256_loadu_ps(btrow + 8 * r));
      acc[r] = _mm256_add_ps(acc[r], prod);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* d = darow + k + 8 * r;
    _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), acc[r]));
  }
}

// Columns [jj, jj + 8R) of one dB row, held in R registers across the
// ascending-i loop and stored once.
template <int R>
__attribute__((target("avx2"))) inline void GradBRowPanel(
    const float* a_col, const float* g, float* db_row, int rows, int cols,
    int jj) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_loadu_ps(db_row + jj + 8 * r);
  for (int i = 0; i < rows; ++i) {
    const float av = a_col[i];
    if (av == 0.0f) continue;
    const __m256 vav = _mm256_set1_ps(av);
    const float* grow = g + static_cast<size_t>(i) * cols + jj;
    for (int r = 0; r < R; ++r) {
      const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(grow + 8 * r));
      acc[r] = _mm256_add_ps(acc[r], prod);
    }
  }
  for (int r = 0; r < R; ++r) _mm256_storeu_ps(db_row + jj + 8 * r, acc[r]);
}

}  // namespace

__attribute__((target("avx2")))
void GemmGradAAvx2(const float* g, const float* bt, float* da,
                   int64_t row_begin, int64_t row_end, int inner, int cols) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* grow = g + static_cast<size_t>(i) * cols;
    float* darow = da + static_cast<size_t>(i) * inner;
    int k = 0;
    for (; k + 32 <= inner; k += 32) {
      GradARowPanel<4>(grow, bt, darow, k, inner, cols);
    }
    for (; k + 8 <= inner; k += 8) {
      GradARowPanel<1>(grow, bt, darow, k, inner, cols);
    }
    for (; k < inner; ++k) {
      float acc = 0.0f;
      for (int j = 0; j < cols; ++j) {
        acc += grow[j] * bt[static_cast<size_t>(j) * inner + k];
      }
      darow[k] += acc;
    }
  }
}

__attribute__((target("avx2")))
void GemmGradBAvx2(const float* a_col, const float* g, float* db_row,
                   int rows, int cols) {
  int jj = 0;
  for (; jj + 64 <= cols; jj += 64) {
    GradBRowPanel<8>(a_col, g, db_row, rows, cols, jj);
  }
  if (jj + 32 <= cols) {
    GradBRowPanel<4>(a_col, g, db_row, rows, cols, jj);
    jj += 32;
  }
  for (; jj + 8 <= cols; jj += 8) {
    GradBRowPanel<1>(a_col, g, db_row, rows, cols, jj);
  }
  if (jj == cols) return;
  for (int i = 0; i < rows; ++i) {
    const float av = a_col[i];
    if (av == 0.0f) continue;
    const float* grow = g + static_cast<size_t>(i) * cols;
    for (int j = jj; j < cols; ++j) db_row[j] += av * grow[j];
  }
}

#else  // !GP_HAVE_AVX2_TARGET

// Unreachable on non-x86 (Avx2Enabled() is always false there), but the
// symbols must exist: plain scalar mirrors of GemmRows, GemmGradA and
// GemmGradB.
void GemmRowsAvx2(const float* a, const float* b, float* out,
                  int64_t row_begin, int64_t row_end, int inner, int cols,
                  bool skip_zeros) {
  float panel[kGemmPanel];
  for (int kk = 0; kk < inner; kk += kGemmKBlock) {
    const int kend = std::min(inner, kk + kGemmKBlock);
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + static_cast<size_t>(i) * inner;
      float* orow = out + static_cast<size_t>(i) * cols;
      for (int jj = 0; jj < cols; jj += kGemmPanel) {
        const int width = std::min<int>(kGemmPanel, cols - jj);
        std::copy_n(orow + jj, width, panel);
        for (int k = kk; k < kend; ++k) {
          const float av = arow[k];
          if (skip_zeros && av == 0.0f) continue;
          const float* brow = b + static_cast<size_t>(k) * cols + jj;
          for (int j = 0; j < width; ++j) panel[j] += av * brow[j];
        }
        std::copy_n(panel, width, orow + jj);
      }
    }
  }
}

void GemmGradAAvx2(const float* g, const float* bt, float* da,
                   int64_t row_begin, int64_t row_end, int inner, int cols) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const float* grow = g + static_cast<size_t>(i) * cols;
    float* darow = da + static_cast<size_t>(i) * inner;
    for (int k = 0; k < inner; ++k) {
      float acc = 0.0f;
      for (int j = 0; j < cols; ++j) {
        acc += grow[j] * bt[static_cast<size_t>(j) * inner + k];
      }
      darow[k] += acc;
    }
  }
}

void GemmGradBAvx2(const float* a_col, const float* g, float* db_row,
                   int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    const float av = a_col[i];
    if (av == 0.0f) continue;
    const float* grow = g + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) db_row[j] += av * grow[j];
  }
}

#endif  // GP_HAVE_AVX2_TARGET

}  // namespace internal
}  // namespace gp
