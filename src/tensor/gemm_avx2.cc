// AVX2 GEMM kernels (declared in tensor/ops.h, dispatched from
// tensor/ops.cc when Avx2Enabled()): the forward row kernel and the two
// autograd backward kernels.
//
// Bitwise-identity contract: each kernel keeps its scalar counterpart's
// per-element sequence of IEEE operations and only spreads independent
// output elements over the 8 lanes of a register. Every update is an
// explicit mul THEN add, compiled without FMA (target("avx2") only), so
// the intermediate product is rounded to float exactly like the scalar
// expression, and no kernel reduces across lanes. The results therefore
// match the scalar loops in ops.cc bit for bit:
//   * GemmRowsAvx2 mirrors GemmRows: each out element starts from its
//     stored value (GatherConcatLinear resumes from a partial) and adds
//     av * b[k][j] in ascending k, skipping av == 0 when asked. Outputs
//     8 or more columns wide put the lanes on j: per row and k block,
//     the k of the nonzero operands are compacted without a branch, and
//     each panel of up to 64 columns is held in registers over that list
//     and stored once. Narrower outputs put the lanes on 8 rows, gather
//     A's column, and replace a zero operand's product with -0, which
//     leaves every accumulator's bits as the skip does (x + -0 has x's
//     bits for every x but a signaling NaN, which no arithmetic makes).
//   * GemmGradAAvx2 mirrors GemmGradA's `acc` loop with the lanes over k:
//     each accumulator starts at +0, adds g[i][j] * B^T[j][k] in
//     ascending j with no zero skip, then is added once into dA.
//   * GemmGradBAvx2 mirrors GemmGradB's k-outer loop with the lanes over
//     j: each dB element adds av * g[i][j] in ascending i, skipping
//     av == 0 rows.
// None of them allocates: scratch is a stack array or registers.
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
// ops.cc's k block. It bounds the AVX2 row kernel's stack list of
// nonzero k; the bitwise contract holds at any block size.
constexpr int kGemmKBlock = 256;
}  // namespace

#if GP_HAVE_AVX2_TARGET

namespace {

// Columns [jj, jj + 8R) of one out row: R accumulators loaded from out,
// then av * b[k][panel] added for each k of the compacted list `ks`
// (ascending), stored once.
template <int R>
__attribute__((target("avx2"))) inline void RowPanel(const float* arow,
                                                    const int* ks, int n,
                                                    const float* b, int cols,
                                                    float* orow, int jj) {
  __m256 acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_loadu_ps(orow + jj + 8 * r);
  for (int t = 0; t < n; ++t) {
    const int k = ks[t];
    const __m256 vav = _mm256_broadcast_ss(arow + k);
    const float* brow = b + static_cast<size_t>(k) * cols + jj;
    for (int r = 0; r < R; ++r) {
      const __m256 prod = _mm256_mul_ps(vav, _mm256_loadu_ps(brow + 8 * r));
      acc[r] = _mm256_add_ps(acc[r], prod);
    }
  }
  for (int r = 0; r < R; ++r) _mm256_storeu_ps(orow + jj + 8 * r, acc[r]);
}

// Rows [i, i + 8) of an out with cols < 8, lanes on the rows: for each
// column, the 8 accumulators are gathered from out, A's column k is
// gathered per step, and a skipped operand's product becomes -0.
__attribute__((target("avx2"))) inline void Rows8(const float* a,
                                                  const float* b, float* out,
                                                  int64_t i, int inner,
                                                  int cols, bool skip_zeros) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i a_index = _mm256_mullo_epi32(lane, _mm256_set1_epi32(inner));
  const __m256i o_index = _mm256_mullo_epi32(lane, _mm256_set1_epi32(cols));
  // All-ones lanes select -0 where av == 0; all-zero turns the skip off.
  const __m256 skip =
      _mm256_castsi256_ps(_mm256_set1_epi32(skip_zeros ? -1 : 0));
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  const __m256 zero = _mm256_setzero_ps();
  const float* a8 = a + static_cast<size_t>(i) * inner;
  float* o8 = out + static_cast<size_t>(i) * cols;
  for (int j = 0; j < cols; ++j) {
    __m256 acc = _mm256_i32gather_ps(o8 + j, o_index, 4);
    for (int k = 0; k < inner; ++k) {
      const __m256 av = _mm256_i32gather_ps(a8 + k, a_index, 4);
      const __m256 bv =
          _mm256_broadcast_ss(b + static_cast<size_t>(k) * cols + j);
      const __m256 prod = _mm256_mul_ps(av, bv);
      const __m256 skipped =
          _mm256_and_ps(_mm256_cmp_ps(av, zero, _CMP_EQ_OQ), skip);
      acc = _mm256_add_ps(acc, _mm256_blendv_ps(prod, neg_zero, skipped));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    for (int r = 0; r < 8; ++r) {
      o8[static_cast<size_t>(r) * cols + j] = lanes[r];
    }
  }
}

}  // namespace

__attribute__((target("avx2")))
void GemmRowsAvx2(const float* a, const float* b, float* out,
                  int64_t row_begin, int64_t row_end, int inner, int cols,
                  bool skip_zeros) {
  int64_t first = row_begin;
  if (cols < 8) {
    for (; first + 8 <= row_end; first += 8) {
      Rows8(a, b, out, first, inner, cols, skip_zeros);
    }
  }
  int ks[kGemmKBlock];
  for (int kk = 0; kk < inner; kk += kGemmKBlock) {
    const int kend = std::min(inner, kk + kGemmKBlock);
    for (int64_t i = first; i < row_end; ++i) {
      const float* arow = a + static_cast<size_t>(i) * inner;
      float* orow = out + static_cast<size_t>(i) * cols;
      int n = 0;
      for (int k = kk; k < kend; ++k) {
        ks[n] = k;
        n += !skip_zeros || arow[k] != 0.0f;
      }
      int jj = 0;
      for (; jj + 64 <= cols; jj += 64) {
        RowPanel<8>(arow, ks, n, b, cols, orow, jj);
      }
      if (jj + 32 <= cols) {
        RowPanel<4>(arow, ks, n, b, cols, orow, jj);
        jj += 32;
      }
      if (jj + 16 <= cols) {
        RowPanel<2>(arow, ks, n, b, cols, orow, jj);
        jj += 16;
      }
      if (jj + 8 <= cols) {
        RowPanel<1>(arow, ks, n, b, cols, orow, jj);
        jj += 8;
      }
      for (; jj < cols; ++jj) {
        float acc = orow[jj];
        for (int t = 0; t < n; ++t) {
          acc += arow[ks[t]] * b[static_cast<size_t>(ks[t]) * cols + jj];
        }
        orow[jj] = acc;
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
constexpr int kGemmPanel = 128;  // ops.cc's j-panel width
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
