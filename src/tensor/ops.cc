#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "util/cpuid.h"
#include "util/parallel.h"

namespace gp {
namespace {

// Minimum scalar operations per ParallelFor chunk: small tensors stay on
// the serial path (pool dispatch costs more than the loop), and chunks are
// sized so dispatch overhead amortises. Grain depends only on the op
// shape, never the thread count, so chunking — and with it every result —
// is identical at any pool size.
constexpr int64_t kMinChunkWork = 1 << 15;

// Runs fn(first, last) over [0, count) in fixed chunks carrying at least
// kMinChunkWork scalar ops each (`unit_work` = ops per iteration).
// Ranges under two chunks' worth of work run serially inline.
template <typename Fn>
void ParallelRange(int64_t count, int64_t unit_work, const Fn& fn) {
  unit_work = std::max<int64_t>(unit_work, 1);
  if (count * unit_work < 2 * kMinChunkWork) {
    if (count > 0) fn(int64_t{0}, count);
    return;
  }
  const int64_t grain = std::max<int64_t>(1, kMinChunkWork / unit_work);
  ParallelFor(0, count, grain, fn);
}

// How the second operand of a binary op maps onto the first.
enum class Broadcast { kSame, kRow, kCol, kScalar };

Broadcast BroadcastModeOf(const Tensor& a, const Tensor& b) {
  if (b.rows() == 1 && b.cols() == 1) return Broadcast::kScalar;
  if (b.rows() == a.rows() && b.cols() == a.cols()) return Broadcast::kSame;
  if (b.rows() == 1 && b.cols() == a.cols()) return Broadcast::kRow;
  if (b.cols() == 1 && b.rows() == a.rows()) return Broadcast::kCol;
  LOG(FATAL) << "incompatible shapes for broadcast: " << a.rows() << "x"
             << a.cols() << " vs " << b.rows() << "x" << b.cols();
  return Broadcast::kSame;
}

// Index into the (possibly broadcast) second operand.
inline size_t BIndex(Broadcast mode, int r, int c, int cols) {
  switch (mode) {
    case Broadcast::kSame:
      return static_cast<size_t>(r) * cols + c;
    case Broadcast::kRow:
      return static_cast<size_t>(c);
    case Broadcast::kCol:
      return static_cast<size_t>(r);
    case Broadcast::kScalar:
      return 0;
  }
  return 0;
}

// ------------------------------------------------------------ blocked GEMM
//
// Cache-blocked micro-kernel behind MatMul and LinearRelu: computes
// out[i,:] += A[i,:] * B for rows [row_begin, row_end), tiling the k
// dimension into L2-sized blocks of B rows and the j dimension into a
// small stack-resident accumulator panel that stays in L1/registers.
//
// FP contract (DESIGN.md §9): each out[i][j] accumulates strictly in
// ascending k — kk blocks ascend and k ascends within a block — so the
// result is bitwise identical to the naive i-k-j loop at any tile size.
//
// The `av == 0.0f` skip is deliberate: one-hot/label matrices are a
// first-class workload here (prompt label encodings), and the skip elides
// the whole panel update for zero operands. bench_micro_ops pins its cost
// on dense inputs against its win on one-hot inputs; see README
// "Memory & kernels" for the measured justification.
constexpr int kGemmPanel = 128;    // j-panel width in floats (512 B)
constexpr int kGemmKBlock = 256;   // B rows per k block (panel*block ~ L2)

template <bool kSkipZeros>
void GemmRows(const float* a, const float* b, float* out, int64_t row_begin,
              int64_t row_end, int inner, int cols) {
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
          if (kSkipZeros && av == 0.0f) continue;
          const float* brow = b + static_cast<size_t>(k) * cols + jj;
          for (int j = 0; j < width; ++j) panel[j] += av * brow[j];
        }
        std::copy_n(panel, width, orow + jj);
      }
    }
  }
}

// Routes to the AVX2 panel kernel (tensor/gemm_avx2.cc) when dispatch says
// so; both paths are bitwise identical (see ops.h), so the choice is pure
// throughput.
template <bool kSkipZeros>
inline void GemmRowsDispatch(const float* a, const float* b, float* out,
                             int64_t row_begin, int64_t row_end, int inner,
                             int cols) {
  if (Avx2Enabled()) {
    internal::GemmRowsAvx2(a, b, out, row_begin, row_end, inner, cols,
                           kSkipZeros);
    return;
  }
  GemmRows<kSkipZeros>(a, b, out, row_begin, row_end, inner, cols);
}

// dA += G * B^T for G (rows x cols) and B (inner x cols): MatMul
// backward's dA loops, shared by every op whose backward contains a
// MatMul. dA rows are disjoint across row chunks, and each element sums
// its products in ascending j from zero before the one add into dA. The
// AVX2 kernel (tensor/gemm_avx2.cc) keeps that sequence with its lanes
// over k, so it reads B transposed, copied once per call into a stack
// block rather than heap scratch: a pooled copy raised the pretrain
// benchmark's peak RSS by 5%, a plain vector serve_light's by 9%. A B
// too large for the block keeps the scalar loop, which gives the same
// bits.
constexpr int64_t kGradABlockFloats = 16384;  // 64 KiB

void GemmGradA(const float* g, const float* b, float* da, int rows,
               int inner, int cols) {
  if (Avx2Enabled() &&
      static_cast<int64_t>(inner) * cols <= kGradABlockFloats) {
    alignas(32) float bt[kGradABlockFloats];
    for (int k = 0; k < inner; ++k) {
      for (int j = 0; j < cols; ++j) {
        bt[static_cast<size_t>(j) * inner + k] =
            b[static_cast<size_t>(k) * cols + j];
      }
    }
    ParallelRange(rows, static_cast<int64_t>(inner) * cols,
                  [&](int64_t first, int64_t last) {
                    internal::GemmGradAAvx2(g, bt, da, first, last, inner,
                                            cols);
                  });
    return;
  }
  ParallelRange(rows, static_cast<int64_t>(inner) * cols,
                [&](int64_t first, int64_t last) {
                  for (int i = static_cast<int>(first); i < last; ++i) {
                    const float* grow = g + static_cast<size_t>(i) * cols;
                    float* darow = da + static_cast<size_t>(i) * inner;
                    for (int k = 0; k < inner; ++k) {
                      const float* brow = b + static_cast<size_t>(k) * cols;
                      float acc = 0.0f;
                      for (int j = 0; j < cols; ++j) acc += grow[j] * brow[j];
                      darow[k] += acc;
                    }
                  }
                });
}

// dB += A^T * G with A's element (i, k) read as a_at(i, k): MatMul
// backward's dB loops, iterated k-outer so each chunk owns a disjoint band
// of dB rows. Per dB element the accumulation still runs in ascending i
// with the zero-operand skip, matching the serial i-outer order bit for
// bit. The AVX2 kernel (tensor/gemm_avx2.cc) keeps that order with its
// lanes over j. It reads A's column k gathered into a stack block of
// kGradBColBlock rows at a time; each block resumes from the dB row the
// previous one stored, which splits the ascending-i loop without
// changing it.
constexpr int kGradBColBlock = 512;

template <typename AAt>
void GemmGradB(const AAt& a_at, const float* g, float* db, int rows,
               int inner, int cols) {
  if (Avx2Enabled()) {
    ParallelRange(inner, static_cast<int64_t>(rows) * cols,
                  [&](int64_t first, int64_t last) {
                    float a_col[kGradBColBlock];
                    for (int k = static_cast<int>(first); k < last; ++k) {
                      float* db_row = db + static_cast<size_t>(k) * cols;
                      for (int i0 = 0; i0 < rows; i0 += kGradBColBlock) {
                        const int n = std::min(kGradBColBlock, rows - i0);
                        for (int i = 0; i < n; ++i) a_col[i] = a_at(i0 + i, k);
                        internal::GemmGradBAvx2(
                            a_col, g + static_cast<size_t>(i0) * cols, db_row,
                            n, cols);
                      }
                    }
                  });
    return;
  }
  ParallelRange(inner, static_cast<int64_t>(rows) * cols,
                [&](int64_t first, int64_t last) {
                  for (int k = static_cast<int>(first); k < last; ++k) {
                    float* dbrow = db + static_cast<size_t>(k) * cols;
                    for (int i = 0; i < rows; ++i) {
                      const float av = a_at(i, k);
                      if (av == 0.0f) continue;
                      const float* grow = g + static_cast<size_t>(i) * cols;
                      for (int j = 0; j < cols; ++j) dbrow[j] += av * grow[j];
                    }
                  }
                });
}

// Builds the result tensor; records the backward function only when autograd
// is enabled and some parent needs a gradient.
Tensor FinishOp(int rows, int cols, std::vector<float> data,
                std::vector<TensorImplPtr> parents,
                std::function<void(TensorImpl&)> backward_fn) {
  bool build_graph = GradEnabled();
  if (build_graph) {
    bool any = false;
    for (const auto& p : parents) any = any || (p && p->requires_grad);
    build_graph = any;
  }
  if (!build_graph) {
    return Tensor::FromData(rows, cols, std::move(data));
  }
  TensorImplPtr impl = MakeResultImpl(rows, cols, std::move(parents));
  impl->data = std::move(data);
  impl->backward_fn = std::move(backward_fn);
  return Tensor::Wrap(std::move(impl));
}

inline bool WantsGrad(const TensorImplPtr& p) {
  return p && p->requires_grad;
}

// Copies an index list for a backward function. Without autograd no
// backward function is kept, so inference skips the copy.
std::shared_ptr<const std::vector<int>> KeepForBackward(
    const std::vector<int>& index) {
  if (!GradEnabled()) return nullptr;
  return std::make_shared<const std::vector<int>>(index);
}

// Accumulates `g` (rows x cols) into `out`, which has the broadcast
// operand's shape, reducing over the broadcast dimension(s). Element order
// is fixed (row-major, rows outer) so the reduction is deterministic.
void ReduceBroadcastInto(const std::vector<float>& g, int rows, int cols,
                         Broadcast mode, float* out) {
  switch (mode) {
    case Broadcast::kSame:
      ParallelRange(static_cast<int64_t>(g.size()), 1,
                    [&](int64_t first, int64_t last) {
                      for (int64_t i = first; i < last; ++i) {
                        out[i] += g[i];
                      }
                    });
      break;
    case Broadcast::kRow:
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          out[c] += g[static_cast<size_t>(r) * cols + c];
        }
      }
      break;
    case Broadcast::kCol:
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          out[r] += g[static_cast<size_t>(r) * cols + c];
        }
      }
      break;
    case Broadcast::kScalar: {
      float total = 0.0f;
      for (float v : g) total += v;
      out[0] += total;
      break;
    }
  }
}

// Adds `g` into the gradient of the broadcast operand `b`.
void ReduceIntoBroadcast(const std::vector<float>& g, int rows, int cols,
                         Broadcast mode, TensorImpl* b) {
  b->EnsureGrad();
  ReduceBroadcastInto(g, rows, cols, mode, b->grad.data());
}

// The Sigmoid op's value, split by sign so exp never overflows, and its
// derivative from the output y; EdgeMlpSigmoid applies the same two.
inline float SigmoidValue(float v) {
  if (v >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-v));
  }
  const float e = std::exp(v);
  return e / (1.0f + e);
}

inline float SigmoidGrad(float y) { return y * (1.0f - y); }

// Generic elementwise unary op: value(v) and derivative expressed with the
// input value x and the output value y.
template <typename ValueFn, typename GradFn>
Tensor UnaryOp(const Tensor& a, ValueFn value_fn, GradFn grad_fn) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  const float* in = a.data().data();
  ParallelRange(static_cast<int64_t>(out.size()), 1,
                [&](int64_t first, int64_t last) {
                  for (int64_t i = first; i < last; ++i) {
                    out[i] = value_fn(in[i]);
                  }
                });
  auto pa = a.impl();
  return FinishOp(rows, cols, std::move(out), {pa},
                  [pa, grad_fn](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    ParallelRange(
                        static_cast<int64_t>(node.grad.size()), 1,
                        [&](int64_t first, int64_t last) {
                          for (int64_t i = first; i < last; ++i) {
                            pa->grad[i] += node.grad[i] *
                                           grad_fn(pa->data[i], node.data[i]);
                          }
                        });
                  });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const Broadcast mode = BroadcastModeOf(a, b);
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  const float* adata = a.data().data();
  const float* bdata = b.data().data();
  ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      for (int c = 0; c < cols; ++c) {
        const size_t i = static_cast<size_t>(r) * cols + c;
        out[i] = adata[i] + bdata[BIndex(mode, r, c, cols)];
      }
    }
  });
  auto pa = a.impl();
  auto pb = b.impl();
  return FinishOp(rows, cols, std::move(out), {pa, pb},
                  [pa, pb, mode, rows, cols](TensorImpl& node) {
                    if (WantsGrad(pa)) {
                      pa->EnsureGrad();
                      ParallelRange(static_cast<int64_t>(node.grad.size()), 1,
                                    [&](int64_t first, int64_t last) {
                                      for (int64_t i = first; i < last; ++i) {
                                        pa->grad[i] += node.grad[i];
                                      }
                                    });
                    }
                    if (WantsGrad(pb)) {
                      ReduceIntoBroadcast(node.grad, rows, cols, mode,
                                          pb.get());
                    }
                  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  const Broadcast mode = BroadcastModeOf(a, b);
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  const float* adata = a.data().data();
  const float* bdata = b.data().data();
  ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      for (int c = 0; c < cols; ++c) {
        const size_t i = static_cast<size_t>(r) * cols + c;
        out[i] = adata[i] - bdata[BIndex(mode, r, c, cols)];
      }
    }
  });
  auto pa = a.impl();
  auto pb = b.impl();
  return FinishOp(rows, cols, std::move(out), {pa, pb},
                  [pa, pb, mode, rows, cols](TensorImpl& node) {
                    if (WantsGrad(pa)) {
                      pa->EnsureGrad();
                      ParallelRange(static_cast<int64_t>(node.grad.size()), 1,
                                    [&](int64_t first, int64_t last) {
                                      for (int64_t i = first; i < last; ++i) {
                                        pa->grad[i] += node.grad[i];
                                      }
                                    });
                    }
                    if (WantsGrad(pb)) {
                      std::vector<float> neg = AcquireBuffer(node.grad.size());
                      for (size_t i = 0; i < neg.size(); ++i) {
                        neg[i] = -node.grad[i];
                      }
                      ReduceIntoBroadcast(neg, rows, cols, mode, pb.get());
                      ReleaseBuffer(std::move(neg));
                    }
                  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const Broadcast mode = BroadcastModeOf(a, b);
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  const float* adata = a.data().data();
  const float* bdata = b.data().data();
  ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      for (int c = 0; c < cols; ++c) {
        const size_t i = static_cast<size_t>(r) * cols + c;
        out[i] = adata[i] * bdata[BIndex(mode, r, c, cols)];
      }
    }
  });
  auto pa = a.impl();
  auto pb = b.impl();
  return FinishOp(
      rows, cols, std::move(out), {pa, pb},
      [pa, pb, mode, rows, cols](TensorImpl& node) {
        if (WantsGrad(pa)) {
          pa->EnsureGrad();
          ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
            for (int r = static_cast<int>(first); r < last; ++r) {
              for (int c = 0; c < cols; ++c) {
                const size_t i = static_cast<size_t>(r) * cols + c;
                pa->grad[i] +=
                    node.grad[i] * pb->data[BIndex(mode, r, c, cols)];
              }
            }
          });
        }
        if (WantsGrad(pb)) {
          std::vector<float> scaled = AcquireBuffer(node.grad.size());
          ParallelRange(static_cast<int64_t>(scaled.size()), 1,
                        [&](int64_t first, int64_t last) {
                          for (int64_t i = first; i < last; ++i) {
                            scaled[i] = node.grad[i] * pa->data[i];
                          }
                        });
          ReduceIntoBroadcast(scaled, rows, cols, mode, pb.get());
          ReleaseBuffer(std::move(scaled));
        }
      });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  const Broadcast mode = BroadcastModeOf(a, b);
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  const float* adata = a.data().data();
  const float* bdata = b.data().data();
  ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      for (int c = 0; c < cols; ++c) {
        const size_t i = static_cast<size_t>(r) * cols + c;
        out[i] = adata[i] / bdata[BIndex(mode, r, c, cols)];
      }
    }
  });
  auto pa = a.impl();
  auto pb = b.impl();
  return FinishOp(
      rows, cols, std::move(out), {pa, pb},
      [pa, pb, mode, rows, cols](TensorImpl& node) {
        if (WantsGrad(pa)) {
          pa->EnsureGrad();
          ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
            for (int r = static_cast<int>(first); r < last; ++r) {
              for (int c = 0; c < cols; ++c) {
                const size_t i = static_cast<size_t>(r) * cols + c;
                pa->grad[i] +=
                    node.grad[i] / pb->data[BIndex(mode, r, c, cols)];
              }
            }
          });
        }
        if (WantsGrad(pb)) {
          std::vector<float> scaled = AcquireBuffer(node.grad.size());
          ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
            for (int r = static_cast<int>(first); r < last; ++r) {
              for (int c = 0; c < cols; ++c) {
                const size_t i = static_cast<size_t>(r) * cols + c;
                const float bv = pb->data[BIndex(mode, r, c, cols)];
                scaled[i] = -node.grad[i] * pa->data[i] / (bv * bv);
              }
            }
          });
          ReduceIntoBroadcast(scaled, rows, cols, mode, pb.get());
          ReleaseBuffer(std::move(scaled));
        }
      });
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(
      a, [](float v) { return -v; }, [](float, float) { return -1.0f; });
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float v) { return v * s; }, [s](float, float) { return s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float v) { return v + s; }, [](float, float) { return 1.0f; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.cols(), b.rows());
  const int rows = a.rows();
  const int inner = a.cols();
  const int cols = b.cols();
  std::vector<float> out = AcquireZeroedBuffer(static_cast<size_t>(rows) * cols);
  // Output rows are disjoint, so row chunks parallelise without changing
  // any result; within a chunk the blocked kernel keeps ascending-k
  // accumulation per element (see GemmRows above).
  const float* adata = a.data().data();
  const float* bdata = b.data().data();
  ParallelRange(rows, static_cast<int64_t>(inner) * cols,
                [&](int64_t first, int64_t last) {
                  GemmRowsDispatch<true>(adata, bdata, out.data(), first,
                                         last, inner, cols);
                });
  auto pa = a.impl();
  auto pb = b.impl();
  return FinishOp(
      rows, cols, std::move(out), {pa, pb},
      [pa, pb, rows, inner, cols](TensorImpl& node) {
        if (WantsGrad(pa)) {
          pa->EnsureGrad();
          GemmGradA(node.grad.data(), pb->data.data(), pa->grad.data(), rows,
                    inner, cols);
        }
        if (WantsGrad(pb)) {
          pb->EnsureGrad();
          const float* ad = pa->data.data();
          GemmGradB(
              [ad, inner](int i, int k) {
                return ad[static_cast<size_t>(i) * inner + k];
              },
              node.grad.data(), pb->grad.data(), rows, inner, cols);
        }
      });
}

Tensor Transpose(const Tensor& a) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      out[static_cast<size_t>(c) * rows + r] =
          a.data()[static_cast<size_t>(r) * cols + c];
    }
  }
  auto pa = a.impl();
  return FinishOp(cols, rows, std::move(out), {pa},
                  [pa, rows, cols](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    for (int r = 0; r < rows; ++r) {
                      for (int c = 0; c < cols; ++c) {
                        pa->grad[static_cast<size_t>(r) * cols + c] +=
                            node.grad[static_cast<size_t>(c) * rows + r];
                      }
                    }
                  });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float v) { return SigmoidValue(v); },
      [](float, float y) { return SigmoidGrad(y); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp(
      a,
      [negative_slope](float v) {
        return v > 0.0f ? v : negative_slope * v;
      },
      [negative_slope](float x, float) {
        return x > 0.0f ? 1.0f : negative_slope;
      });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float v) { return std::exp(v); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a, float eps) {
  return UnaryOp(
      a, [eps](float v) { return std::log(std::max(v, eps)); },
      [eps](float x, float) { return 1.0f / std::max(x, eps); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float v) { return v * v; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Softmax(const Tensor& a) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  ParallelRange(rows, 4 * cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float* in = a.data().data() + static_cast<size_t>(r) * cols;
      float* o = out.data() + static_cast<size_t>(r) * cols;
      float mx = in[0];
      for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
      float total = 0.0f;
      for (int c = 0; c < cols; ++c) {
        o[c] = std::exp(in[c] - mx);
        total += o[c];
      }
      for (int c = 0; c < cols; ++c) o[c] /= total;
    }
  });
  auto pa = a.impl();
  return FinishOp(
      rows, cols, std::move(out), {pa}, [pa, rows, cols](TensorImpl& node) {
        if (!WantsGrad(pa)) return;
        pa->EnsureGrad();
        ParallelRange(rows, 4 * cols, [&](int64_t first, int64_t last) {
          for (int r = static_cast<int>(first); r < last; ++r) {
            const float* y = node.data.data() + static_cast<size_t>(r) * cols;
            const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
            float dot = 0.0f;
            for (int c = 0; c < cols; ++c) dot += y[c] * g[c];
            float* da = pa->grad.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) da[c] += y[c] * (g[c] - dot);
          }
        });
      });
}

Tensor LogSoftmax(const Tensor& a) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  ParallelRange(rows, 4 * cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float* in = a.data().data() + static_cast<size_t>(r) * cols;
      float* o = out.data() + static_cast<size_t>(r) * cols;
      float mx = in[0];
      for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
      float total = 0.0f;
      for (int c = 0; c < cols; ++c) total += std::exp(in[c] - mx);
      const float lse = mx + std::log(total);
      for (int c = 0; c < cols; ++c) o[c] = in[c] - lse;
    }
  });
  auto pa = a.impl();
  return FinishOp(
      rows, cols, std::move(out), {pa}, [pa, rows, cols](TensorImpl& node) {
        if (!WantsGrad(pa)) return;
        pa->EnsureGrad();
        ParallelRange(rows, 4 * cols, [&](int64_t first, int64_t last) {
          for (int r = static_cast<int>(first); r < last; ++r) {
            const float* y = node.data.data() + static_cast<size_t>(r) * cols;
            const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
            float gsum = 0.0f;
            for (int c = 0; c < cols; ++c) gsum += g[c];
            float* da = pa->grad.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) {
              da[c] += g[c] - std::exp(y[c]) * gsum;
            }
          }
        });
      });
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels) {
  CHECK_EQ(static_cast<size_t>(logits.rows()), labels.size());
  const int rows = logits.rows();
  const int cols = logits.cols();
  // Forward: mean of -log softmax(logits)[i, labels[i]]. Per-row terms are
  // computed in parallel; the mean reduces them serially in row order so
  // the result matches the serial build exactly.
  // `probs` is stashed for the backward pass behind a shared_ptr, so it
  // stays a plain vector (pooled buffers must end life in a TensorImpl or
  // an explicit ReleaseBuffer to keep the live-byte accounting exact).
  std::vector<float> probs(logits.data().size());
  std::vector<float> row_loss = AcquireBuffer(rows);
  ParallelRange(rows, 4 * cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float* in = logits.data().data() + static_cast<size_t>(r) * cols;
      float* p = probs.data() + static_cast<size_t>(r) * cols;
      float mx = in[0];
      for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
      float total = 0.0f;
      for (int c = 0; c < cols; ++c) {
        p[c] = std::exp(in[c] - mx);
        total += p[c];
      }
      for (int c = 0; c < cols; ++c) p[c] /= total;
      CHECK_GE(labels[r], 0);
      CHECK_LT(labels[r], cols);
      row_loss[r] = std::log(std::max(p[labels[r]], 1e-12f));
    }
  });
  double loss = 0.0;
  for (int r = 0; r < rows; ++r) loss -= row_loss[r];
  loss /= std::max(rows, 1);
  ReleaseBuffer(std::move(row_loss));
  auto pl = logits.impl();
  auto labels_copy = labels;
  auto probs_ptr = std::make_shared<std::vector<float>>(std::move(probs));
  return FinishOp(
      1, 1, {static_cast<float>(loss)}, {pl},
      [pl, labels_copy, probs_ptr, rows, cols](TensorImpl& node) {
        if (!WantsGrad(pl)) return;
        pl->EnsureGrad();
        const float g = node.grad[0] / static_cast<float>(std::max(rows, 1));
        ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
          for (int r = static_cast<int>(first); r < last; ++r) {
            const float* p = probs_ptr->data() + static_cast<size_t>(r) * cols;
            float* d = pl->grad.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) {
              const float target = (c == labels_copy[r]) ? 1.0f : 0.0f;
              d[c] += g * (p[c] - target);
            }
          }
        });
      });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rows(), b.rows());
  const int rows = a.rows();
  const int ca = a.cols();
  const int cb = b.cols();
  std::vector<float> out =
      AcquireBuffer(static_cast<size_t>(rows) * (ca + cb));
  for (int r = 0; r < rows; ++r) {
    std::copy_n(a.data().data() + static_cast<size_t>(r) * ca, ca,
                out.data() + static_cast<size_t>(r) * (ca + cb));
    std::copy_n(b.data().data() + static_cast<size_t>(r) * cb, cb,
                out.data() + static_cast<size_t>(r) * (ca + cb) + ca);
  }
  auto pa = a.impl();
  auto pb = b.impl();
  return FinishOp(
      rows, ca + cb, std::move(out), {pa, pb},
      [pa, pb, rows, ca, cb](TensorImpl& node) {
        if (WantsGrad(pa)) {
          pa->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < ca; ++c) {
              pa->grad[static_cast<size_t>(r) * ca + c] +=
                  node.grad[static_cast<size_t>(r) * (ca + cb) + c];
            }
          }
        }
        if (WantsGrad(pb)) {
          pb->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cb; ++c) {
              pb->grad[static_cast<size_t>(r) * cb + c] +=
                  node.grad[static_cast<size_t>(r) * (ca + cb) + ca + c];
            }
          }
        }
      });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int rows = 0;
  for (const auto& p : parts) {
    CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(rows) * cols);
  std::vector<TensorImplPtr> parents;
  std::vector<int> offsets;
  int offset = 0;
  for (const auto& p : parts) {
    std::copy(p.data().begin(), p.data().end(),
              out.begin() + static_cast<size_t>(offset) * cols);
    parents.push_back(p.impl());
    offsets.push_back(offset);
    offset += p.rows();
  }
  return FinishOp(
      rows, cols, std::move(out), parents,
      [parents, offsets, cols](TensorImpl& node) {
        for (size_t k = 0; k < parents.size(); ++k) {
          const auto& p = parents[k];
          if (!WantsGrad(p)) continue;
          p->EnsureGrad();
          const size_t base = static_cast<size_t>(offsets[k]) * cols;
          for (size_t i = 0; i < p->data.size(); ++i) {
            p->grad[i] += node.grad[base + i];
          }
        }
      });
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& index) {
  const int cols = a.cols();
  const int rows = static_cast<int>(index.size());
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(rows) * cols);
  ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      DCHECK_GE(index[r], 0);
      DCHECK_LT(index[r], a.rows());
      std::copy_n(a.data().data() + static_cast<size_t>(index[r]) * cols,
                  cols, out.data() + static_cast<size_t>(r) * cols);
    }
  });
  auto pa = a.impl();
  auto index_copy = index;
  return FinishOp(rows, cols, std::move(out), {pa},
                  [pa, index_copy, cols](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    for (size_t r = 0; r < index_copy.size(); ++r) {
                      const float* g = node.grad.data() + r * cols;
                      float* d = pa->grad.data() +
                                 static_cast<size_t>(index_copy[r]) * cols;
                      for (int c = 0; c < cols; ++c) d[c] += g[c];
                    }
                  });
}

Tensor ScatterAddRows(const Tensor& src, const std::vector<int>& index,
                      int num_rows) {
  CHECK_EQ(static_cast<size_t>(src.rows()), index.size());
  const int cols = src.cols();
  std::vector<float> out =
      AcquireZeroedBuffer(static_cast<size_t>(num_rows) * cols);
  for (int r = 0; r < src.rows(); ++r) {
    DCHECK_GE(index[r], 0);
    DCHECK_LT(index[r], num_rows);
    const float* s = src.data().data() + static_cast<size_t>(r) * cols;
    float* o = out.data() + static_cast<size_t>(index[r]) * cols;
    for (int c = 0; c < cols; ++c) o[c] += s[c];
  }
  auto ps = src.impl();
  auto index_copy = index;
  return FinishOp(num_rows, cols, std::move(out), {ps},
                  [ps, index_copy, cols](TensorImpl& node) {
                    if (!WantsGrad(ps)) return;
                    ps->EnsureGrad();
                    for (size_t r = 0; r < index_copy.size(); ++r) {
                      const float* g = node.grad.data() +
                                       static_cast<size_t>(index_copy[r]) * cols;
                      float* d = ps->grad.data() + r * cols;
                      for (int c = 0; c < cols; ++c) d[c] += g[c];
                    }
                  });
}

Tensor SliceRows(const Tensor& a, int start, int count) {
  CHECK_GE(start, 0);
  CHECK_GE(count, 0);
  CHECK_LE(start + count, a.rows());
  const int cols = a.cols();
  std::vector<float> out =
      AcquireBuffer(static_cast<size_t>(count) * cols);
  std::copy(a.data().begin() + static_cast<size_t>(start) * cols,
            a.data().begin() + static_cast<size_t>(start + count) * cols,
            out.begin());
  auto pa = a.impl();
  return FinishOp(count, cols, std::move(out), {pa},
                  [pa, start, cols](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    const size_t base = static_cast<size_t>(start) * cols;
                    for (size_t i = 0; i < node.grad.size(); ++i) {
                      pa->grad[base + i] += node.grad[i];
                    }
                  });
}

Tensor RowScale(const Tensor& a, const Tensor& weights) {
  CHECK_EQ(weights.rows(), a.rows());
  CHECK_EQ(weights.cols(), 1);
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float w = weights.data()[r];
      const float* in = a.data().data() + static_cast<size_t>(r) * cols;
      float* o = out.data() + static_cast<size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) o[c] = in[c] * w;
    }
  });
  auto pa = a.impl();
  auto pw = weights.impl();
  return FinishOp(
      rows, cols, std::move(out), {pa, pw},
      [pa, pw, rows, cols](TensorImpl& node) {
        if (WantsGrad(pa)) {
          pa->EnsureGrad();
          ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
            for (int r = static_cast<int>(first); r < last; ++r) {
              const float w = pw->data[r];
              const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
              float* d = pa->grad.data() + static_cast<size_t>(r) * cols;
              for (int c = 0; c < cols; ++c) d[c] += g[c] * w;
            }
          });
        }
        if (WantsGrad(pw)) {
          pw->EnsureGrad();
          ParallelRange(rows, cols, [&](int64_t first, int64_t last) {
            for (int r = static_cast<int>(first); r < last; ++r) {
              const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
              const float* x = pa->data.data() + static_cast<size_t>(r) * cols;
              float acc = 0.0f;
              for (int c = 0; c < cols; ++c) acc += g[c] * x[c];
              pw->grad[r] += acc;
            }
          });
        }
      });
}

// ---------------------------------------------------------------- fused ops
//
// See ops.h and DESIGN.md §9 for the fusion contract. The helpers below
// perform the same per-element FP operations in the same order as the
// unfused GatherRows → RowScale → ScatterAddRows chains: the intermediate
// per-edge values in those chains are single products (or copies)
// accumulated from zero-initialised buffers, so eliding the intermediates
// changes nothing bit for bit.

namespace {

// Row of the edge-weight tensor that weighs edge e: wrow[e], or e itself
// when `wrow` is null.
inline int WeightRow(const int* wrow, int e) {
  return wrow != nullptr ? wrow[e] : e;
}

// out[dst[e]] += x[src[e]] * w[WeightRow(wrow, e)], edges in ascending
// order. `w` may be null (unit weights — no multiply is performed,
// matching the unfused chain without its RowScale node).
void FusedScatterForward(const float* x, int x_rows, const int* src,
                         const float* w, const int* wrow, const int* dst,
                         int num_edges, int num_rows, int cols, float* out) {
  for (int e = 0; e < num_edges; ++e) {
    DCHECK_GE(src[e], 0);
    DCHECK_LT(src[e], x_rows);
    DCHECK_GE(dst[e], 0);
    DCHECK_LT(dst[e], num_rows);
    const float* s = x + static_cast<size_t>(src[e]) * cols;
    float* o = out + static_cast<size_t>(dst[e]) * cols;
    if (w != nullptr) {
      const float we = w[WeightRow(wrow, e)];
      for (int c = 0; c < cols; ++c) o[c] += s[c] * we;
    } else {
      for (int c = 0; c < cols; ++c) o[c] += s[c];
    }
  }
}

// Backward core, with k = WeightRow(wrow, e): d_x[src[e]] += g[dst[e]] *
// w[k] and d_w[k] += <g[dst[e]], x[src[e]]>. d_x and d_w are disjoint, and
// each element of either receives its additions in ascending edge order,
// so the per-edge interleaving here matches the two-pass unfused backward
// element for element.
void FusedScatterBackward(const float* g, const float* x, const int* src,
                          const float* w, const int* wrow, const int* dst,
                          int num_edges, int cols, float* d_x, float* d_w) {
  for (int e = 0; e < num_edges; ++e) {
    const size_t srow = static_cast<size_t>(src[e]) * cols;
    const float* grow = g + static_cast<size_t>(dst[e]) * cols;
    const int k = WeightRow(wrow, e);
    if (d_x != nullptr) {
      float* d = d_x + srow;
      if (w != nullptr) {
        const float we = w[k];
        for (int c = 0; c < cols; ++c) d[c] += grow[c] * we;
      } else {
        for (int c = 0; c < cols; ++c) d[c] += grow[c];
      }
    }
    if (d_w != nullptr) {
      const float* xs = x + srow;
      float acc = 0.0f;
      for (int c = 0; c < cols; ++c) acc += grow[c] * xs[c];
      d_w[k] += acc;
    }
  }
}

}  // namespace

Tensor GatherScaleScatterSum(const Tensor& x, const std::vector<int>& src,
                             const std::vector<int>& dst, int num_rows,
                             const Tensor& edge_weight) {
  CHECK_EQ(src.size(), dst.size());
  const int cols = x.cols();
  const int num_edges = static_cast<int>(src.size());
  const bool weighted = edge_weight.defined();
  if (weighted) {
    CHECK_EQ(edge_weight.rows(), num_edges);
    CHECK_EQ(edge_weight.cols(), 1);
  }
  std::vector<float> out =
      AcquireZeroedBuffer(static_cast<size_t>(num_rows) * cols);
  FusedScatterForward(x.data().data(), x.rows(), src.data(),
                      weighted ? edge_weight.data().data() : nullptr,
                      /*wrow=*/nullptr, dst.data(), num_edges, num_rows, cols,
                      out.data());
  auto px = x.impl();
  auto pw = weighted ? edge_weight.impl() : TensorImplPtr();
  auto src_copy = KeepForBackward(src);
  auto dst_copy = KeepForBackward(dst);
  return FinishOp(
      num_rows, cols, std::move(out), {px, pw},
      [px, pw, src_copy, dst_copy, cols](TensorImpl& node) {
        const bool want_x = WantsGrad(px);
        const bool want_w = WantsGrad(pw);
        if (!want_x && !want_w) return;
        if (want_x) px->EnsureGrad();
        if (want_w) pw->EnsureGrad();
        FusedScatterBackward(node.grad.data(), px->data.data(),
                             src_copy->data(),
                             pw ? pw->data.data() : nullptr,
                             /*wrow=*/nullptr, dst_copy->data(),
                             static_cast<int>(src_copy->size()), cols,
                             want_x ? px->grad.data() : nullptr,
                             want_w ? pw->grad.data() : nullptr);
      });
}

Tensor GatherScaleScatterMean(const Tensor& x, const std::vector<int>& src,
                              const std::vector<int>& dst, int num_rows,
                              const Tensor& edge_weight, float eps,
                              const std::vector<int>& weight_row) {
  CHECK_EQ(src.size(), dst.size());
  const int cols = x.cols();
  const int num_edges = static_cast<int>(src.size());
  const bool weighted = edge_weight.defined();
  const bool indexed = !weight_row.empty();
  if (weighted) {
    CHECK_EQ(edge_weight.cols(), 1);
    if (indexed) {
      CHECK_EQ(static_cast<int>(weight_row.size()), num_edges);
      for (int k : weight_row) {
        DCHECK_GE(k, 0);
        DCHECK_LT(k, edge_weight.rows());
      }
    } else {
      CHECK_EQ(edge_weight.rows(), num_edges);
    }
  }
  std::vector<float> out =
      AcquireZeroedBuffer(static_cast<size_t>(num_rows) * cols);
  const float* wd = weighted ? edge_weight.data().data() : nullptr;
  const int* wrow = weighted && indexed ? weight_row.data() : nullptr;
  FusedScatterForward(x.data().data(), x.rows(), src.data(), wd, wrow,
                      dst.data(), num_edges, num_rows, cols, out.data());
  // Denominator: per-destination weight totals accumulated from zero in
  // edge order, then + eps last — the same order as the unfused
  // AddScalar(ScatterAddRows(w_or_ones, dst, n), eps). Plain vector: it is
  // stashed for backward.
  std::vector<float> denom(static_cast<size_t>(num_rows), 0.0f);
  for (int e = 0; e < num_edges; ++e) {
    denom[dst[e]] += weighted ? wd[WeightRow(wrow, e)] : 1.0f;
  }
  for (int r = 0; r < num_rows; ++r) denom[r] += eps;
  const bool build_graph =
      GradEnabled() && (x.requires_grad() ||
                        (weighted && edge_weight.requires_grad()));
  // The un-divided sums are the Div numerator; backward needs them, so
  // copy before dividing in place (graph builds only — inference pays
  // nothing).
  std::shared_ptr<std::vector<float>> sums_ptr;
  if (build_graph) {
    sums_ptr = std::make_shared<std::vector<float>>(out.begin(), out.end());
  }
  ParallelRange(num_rows, cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float d = denom[r];
      float* o = out.data() + static_cast<size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) o[c] = o[c] / d;
    }
  });
  auto px = x.impl();
  auto pw = weighted ? edge_weight.impl() : TensorImplPtr();
  auto src_copy = KeepForBackward(src);
  auto dst_copy = KeepForBackward(dst);
  auto wrow_copy = wrow != nullptr ? KeepForBackward(weight_row) : nullptr;
  auto denom_ptr = std::make_shared<std::vector<float>>(std::move(denom));
  return FinishOp(
      num_rows, cols, std::move(out), {px, pw},
      [px, pw, src_copy, dst_copy, wrow_copy, sums_ptr, denom_ptr, num_rows,
       cols](TensorImpl& node) {
        const bool want_x = WantsGrad(px);
        const bool want_w = WantsGrad(pw);
        if (!want_x && !want_w) return;
        const std::vector<float>& denom = *denom_ptr;
        // Div backward, numerator side: d_sums = g / denom (kCol
        // broadcast), landing in the scatter-sum node's (zero-initialised)
        // grad in the unfused graph.
        std::vector<float> d_sums = AcquireBuffer(node.grad.size());
        ParallelRange(num_rows, cols, [&](int64_t first, int64_t last) {
          for (int r = static_cast<int>(first); r < last; ++r) {
            const float d = denom[r];
            const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
            float* o = d_sums.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) o[c] = g[c] / d;
          }
        });
        if (want_w) {
          // Div backward, denominator side, reduced over columns (kCol),
          // then through AddScalar (identity) and the weight-sum scatter.
          // The unfused graph applies this contribution to the edge
          // weights BEFORE the RowScale dot term (reverse-topo order), so
          // it runs first here too.
          const std::vector<float>& sums = *sums_ptr;
          std::vector<float> d_wsum = AcquireZeroedBuffer(num_rows);
          for (int r = 0; r < num_rows; ++r) {
            const float d = denom[r];
            const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
            const float* s = sums.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) {
              d_wsum[r] += -g[c] * s[c] / (d * d);
            }
          }
          pw->EnsureGrad();
          const int* wrow = wrow_copy ? wrow_copy->data() : nullptr;
          for (size_t e = 0; e < dst_copy->size(); ++e) {
            pw->grad[WeightRow(wrow, static_cast<int>(e))] +=
                d_wsum[(*dst_copy)[e]];
          }
          ReleaseBuffer(std::move(d_wsum));
        }
        if (want_x) px->EnsureGrad();
        FusedScatterBackward(d_sums.data(), px->data.data(),
                             src_copy->data(),
                             pw ? pw->data.data() : nullptr,
                             wrow_copy ? wrow_copy->data() : nullptr,
                             dst_copy->data(),
                             static_cast<int>(src_copy->size()), cols,
                             want_x ? px->grad.data() : nullptr,
                             want_w ? pw->grad.data() : nullptr);
        ReleaseBuffer(std::move(d_sums));
      });
}

Tensor LinearRelu(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  CHECK_EQ(x.cols(), weight.rows());
  const int rows = x.rows();
  const int inner = x.cols();
  const int cols = weight.cols();
  const bool use_bias = bias.defined();
  if (use_bias) {
    CHECK_EQ(bias.rows(), 1);
    CHECK_EQ(bias.cols(), cols);
  }
  std::vector<float> out =
      AcquireZeroedBuffer(static_cast<size_t>(rows) * cols);
  const float* xd = x.data().data();
  const float* wd = weight.data().data();
  const float* bd = use_bias ? bias.data().data() : nullptr;
  ParallelRange(rows, static_cast<int64_t>(inner) * cols,
                [&](int64_t first, int64_t last) {
                  GemmRowsDispatch<true>(xd, wd, out.data(), first, last,
                                         inner, cols);
                  // Bias branch hoisted out of the element loop so both
                  // epilogues stay straight-line vectorisable code.
                  for (int64_t i = first; i < last; ++i) {
                    float* o = out.data() + static_cast<size_t>(i) * cols;
                    if (use_bias) {
                      for (int j = 0; j < cols; ++j) {
                        const float z = o[j] + bd[j];
                        o[j] = z > 0.0f ? z : 0.0f;
                      }
                    } else {
                      for (int j = 0; j < cols; ++j) {
                        o[j] = o[j] > 0.0f ? o[j] : 0.0f;
                      }
                    }
                  }
                });
  auto px = x.impl();
  auto pw = weight.impl();
  auto pb = use_bias ? bias.impl() : TensorImplPtr();
  return FinishOp(
      rows, cols, std::move(out), {px, pw, pb},
      [px, pw, pb, rows, inner, cols](TensorImpl& node) {
        const bool want_x = WantsGrad(px);
        const bool want_w = WantsGrad(pw);
        const bool want_b = WantsGrad(pb);
        if (!want_x && !want_w && !want_b) return;
        // Relu mask applied to the incoming grad. y > 0 iff the
        // pre-activation was > 0, and the multiply-by-mask form (not a
        // select) reproduces the unfused Relu backward bit for bit,
        // including NaN/Inf gradient propagation.
        std::vector<float> gm = AcquireBuffer(node.grad.size());
        ParallelRange(static_cast<int64_t>(gm.size()), 1,
                      [&](int64_t first, int64_t last) {
                        for (int64_t i = first; i < last; ++i) {
                          gm[i] = node.grad[i] *
                                  (node.data[i] > 0.0f ? 1.0f : 0.0f);
                        }
                      });
        if (want_b) {
          // Bias reduce runs before the GEMM grads, as in the unfused
          // graph (Add backward precedes MatMul backward).
          pb->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
              pb->grad[c] += gm[static_cast<size_t>(r) * cols + c];
            }
          }
        }
        if (want_x) {
          px->EnsureGrad();
          GemmGradA(gm.data(), pw->data.data(), px->grad.data(), rows, inner,
                    cols);
        }
        if (want_w) {
          pw->EnsureGrad();
          const float* xd = px->data.data();
          GemmGradB(
              [xd, inner](int i, int k) {
                return xd[static_cast<size_t>(i) * inner + k];
              },
              gm.data(), pw->grad.data(), rows, inner, cols);
        }
        ReleaseBuffer(std::move(gm));
      });
}

Tensor GatherConcatLinear(const Tensor& x, const std::vector<int>& index,
                          const Tensor& feat, const Tensor& weight,
                          const Tensor& bias) {
  const int rows = static_cast<int>(index.size());
  const int x_rows = x.rows();
  const int x_cols = x.cols();
  const int feat_cols = feat.cols();
  const int inner = x_cols + feat_cols;
  const int cols = weight.cols();
  CHECK_EQ(feat.rows(), rows);
  CHECK_EQ(weight.rows(), inner);
  CHECK(bias.defined());
  CHECK_EQ(bias.rows(), 1);
  CHECK_EQ(bias.cols(), cols);
  const float* wd = weight.data().data();
  // The chain's first x.cols() k steps depend only on the gathered row,
  // so run them once per row of x.
  std::vector<float> proj =
      AcquireZeroedBuffer(static_cast<size_t>(x_rows) * cols);
  const float* xd = x.data().data();
  ParallelRange(x_rows, static_cast<int64_t>(x_cols) * cols,
                [&](int64_t first, int64_t last) {
                  GemmRowsDispatch<true>(xd, wd, proj.data(), first, last,
                                         x_cols, cols);
                });
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(rows) * cols);
  const float* fd = feat.data().data();
  const float* bd = bias.data().data();
  ParallelRange(
      rows, static_cast<int64_t>(feat_cols + 2) * cols,
      [&](int64_t first, int64_t last) {
        for (int64_t e = first; e < last; ++e) {
          DCHECK_GE(index[e], 0);
          DCHECK_LT(index[e], x_rows);
          std::copy_n(proj.data() + static_cast<size_t>(index[e]) * cols,
                      cols, out.data() + static_cast<size_t>(e) * cols);
        }
        // Each row's accumulation resumes at k = x.cols() from the stored
        // partial, in the same ascending-k, zero-skipping order.
        GemmRowsDispatch<true>(fd, wd + static_cast<size_t>(x_cols) * cols,
                               out.data(), first, last, feat_cols, cols);
        for (int64_t e = first; e < last; ++e) {
          float* o = out.data() + static_cast<size_t>(e) * cols;
          for (int j = 0; j < cols; ++j) o[j] += bd[j];
        }
      });
  ReleaseBuffer(std::move(proj));
  auto px = x.impl();
  auto pf = feat.impl();
  auto pw = weight.impl();
  auto pb = bias.impl();
  auto index_copy = KeepForBackward(index);
  // Parents in the order the chain's graph search reaches them, so this
  // node's backward runs in the chain's reverse-topological slot.
  return FinishOp(
      rows, cols, std::move(out), {px, pf, pw, pb},
      [px, pf, pw, pb, index_copy, rows, x_cols, feat_cols, inner,
       cols](TensorImpl& node) {
        const std::vector<int>& idx = *index_copy;
        const bool want_x = WantsGrad(px);
        const bool want_f = WantsGrad(pf);
        const float* g = node.grad.data();
        // The chain's backward order: Add (bias reduce), MatMul (dA, dW),
        // ConcatCols, GatherRows.
        if (WantsGrad(pb)) {
          pb->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
              pb->grad[c] += g[static_cast<size_t>(r) * cols + c];
            }
          }
        }
        // dA into zero-initialised scratch standing in for the concat's
        // grad.
        std::vector<float> d_cat;
        if (want_x || want_f) {
          d_cat = AcquireZeroedBuffer(static_cast<size_t>(rows) * inner);
          GemmGradA(g, pw->data.data(), d_cat.data(), rows, inner, cols);
        }
        if (WantsGrad(pw)) {
          // dW reads the concat's columns in place.
          pw->EnsureGrad();
          const float* xd = px->data.data();
          const float* fd = pf->data.data();
          GemmGradB(
              [&idx, xd, fd, x_cols, feat_cols](int i, int k) {
                return k < x_cols
                           ? xd[static_cast<size_t>(idx[i]) * x_cols + k]
                           : fd[static_cast<size_t>(i) * feat_cols +
                                (k - x_cols)];
              },
              g, pw->grad.data(), rows, inner, cols);
        }
        if (want_f) {
          pf->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < feat_cols; ++c) {
              pf->grad[static_cast<size_t>(r) * feat_cols + c] +=
                  d_cat[static_cast<size_t>(r) * inner + x_cols + c];
            }
          }
        }
        if (want_x) {
          // GatherRows backward: scatter-add in row order.
          px->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            const float* s = d_cat.data() + static_cast<size_t>(r) * inner;
            float* d = px->grad.data() + static_cast<size_t>(idx[r]) * x_cols;
            for (int c = 0; c < x_cols; ++c) d[c] += s[c];
          }
        }
        ReleaseBuffer(std::move(d_cat));
      });
}

// Floats in EdgeMlpSigmoid's stack block: a block of edges' x[dst] rows
// and, at inference, their hidden rows.
constexpr int kEdgeMlpBlockFloats = 8192;  // 32 KiB

Tensor EdgeMlpSigmoid(const Tensor& x, const std::vector<int>& src,
                      const std::vector<int>& dst, const Tensor& w0,
                      const Tensor& b0, const Tensor& w1, const Tensor& b1) {
  CHECK(!x.requires_grad()) << "EdgeMlpSigmoid computes no gradient for x";
  CHECK_EQ(src.size(), dst.size());
  const int rows = static_cast<int>(src.size());
  const int x_rows = x.rows();
  const int dim = x.cols();
  const int hidden = w0.cols();
  CHECK_EQ(w0.rows(), 2 * dim);
  CHECK_EQ(b0.rows(), 1);
  CHECK_EQ(b0.cols(), hidden);
  CHECK_EQ(w1.rows(), hidden);
  CHECK_EQ(w1.cols(), 1);
  CHECK_EQ(b1.rows(), 1);
  CHECK_EQ(b1.cols(), 1);
  auto px = x.impl();
  auto pw0 = w0.impl();
  auto pb0 = b0.impl();
  auto pw1 = w1.impl();
  auto pb1 = b1.impl();
  // The backward reads the post-ReLU rows; inference keeps each block's
  // only until its logits are done.
  const bool keep_hidden =
      GradEnabled() && (WantsGrad(pw0) || WantsGrad(pb0) || WantsGrad(pw1) ||
                        WantsGrad(pb1));
  const int block_rows =
      kEdgeMlpBlockFloats / (dim + (keep_hidden ? 0 : hidden));
  CHECK_GE(block_rows, 1) << "one edge's rows exceed the stack block";
  const float* xd = x.data().data();
  const float* w0d = w0.data().data();
  const float* b0d = b0.data().data();
  const float* w1d = w1.data().data();
  const float b1v = b1.data()[0];
  // Edge e's first d k steps read only x[src[e]], so run them once per row
  // of x.
  std::vector<float> proj =
      AcquireZeroedBuffer(static_cast<size_t>(x_rows) * hidden);
  ParallelRange(x_rows, static_cast<int64_t>(dim) * hidden,
                [&](int64_t first, int64_t last) {
                  GemmRowsDispatch<true>(xd, w0d, proj.data(), first, last,
                                         dim, hidden);
                });
  std::vector<float> kept;
  if (keep_hidden) kept = AcquireBuffer(static_cast<size_t>(rows) * hidden);
  std::vector<float> out = AcquireZeroedBuffer(static_cast<size_t>(rows));
  ParallelRange(
      rows, static_cast<int64_t>(dim + 2) * hidden,
      [&](int64_t first, int64_t last) {
        alignas(32) float block[kEdgeMlpBlockFloats];
        for (int64_t e0 = first; e0 < last; e0 += block_rows) {
          const int n =
              static_cast<int>(std::min<int64_t>(block_rows, last - e0));
          float* x_dst = block;
          float* h = keep_hidden
                         ? kept.data() + static_cast<size_t>(e0) * hidden
                         : block + static_cast<size_t>(block_rows) * dim;
          for (int i = 0; i < n; ++i) {
            const int64_t e = e0 + i;
            DCHECK_GE(src[e], 0);
            DCHECK_LT(src[e], x_rows);
            DCHECK_GE(dst[e], 0);
            DCHECK_LT(dst[e], x_rows);
            std::copy_n(proj.data() + static_cast<size_t>(src[e]) * hidden,
                        hidden, h + static_cast<size_t>(i) * hidden);
            std::copy_n(xd + static_cast<size_t>(dst[e]) * dim, dim,
                        x_dst + static_cast<size_t>(i) * dim);
          }
          // Each row's accumulation resumes at k = d from the copied
          // partial, in the same ascending-k, zero-skipping order; then
          // LinearRelu's bias and ReLU.
          GemmRowsDispatch<true>(x_dst,
                                 w0d + static_cast<size_t>(dim) * hidden, h,
                                 0, n, dim, hidden);
          for (int i = 0; i < n; ++i) {
            float* hrow = h + static_cast<size_t>(i) * hidden;
            for (int j = 0; j < hidden; ++j) {
              const float z = hrow[j] + b0d[j];
              hrow[j] = z > 0.0f ? z : 0.0f;
            }
          }
          // Layer 2 as MatMul runs it (from zero, zero operands skipped),
          // then Add's bias and the Sigmoid op's formula.
          float* logit = out.data() + e0;
          GemmRowsDispatch<true>(h, w1d, logit, 0, n, hidden, 1);
          for (int i = 0; i < n; ++i) logit[i] = SigmoidValue(logit[i] + b1v);
        }
      });
  ReleaseBuffer(std::move(proj));
  // A tensor, so the kept rows go back to the pool with the graph.
  TensorImplPtr ph;
  if (keep_hidden) ph = Tensor::FromData(rows, hidden, std::move(kept)).impl();
  auto src_copy = KeepForBackward(src);
  auto dst_copy = KeepForBackward(dst);
  return FinishOp(
      rows, 1, std::move(out), {px, pw0, pb0, pw1, pb1},
      [px, pw0, pb0, pw1, pb1, ph, src_copy, dst_copy, rows, dim,
       hidden](TensorImpl& node) {
        const bool want_w0 = WantsGrad(pw0);
        const bool want_b0 = WantsGrad(pb0);
        const bool want_hidden = want_w0 || want_b0;
        const float* hd = ph->data.data();
        // Sigmoid's, then Add's backward: the logit's grad, added into a
        // zeroed grad as the chain's is.
        std::vector<float> g = AcquireZeroedBuffer(static_cast<size_t>(rows));
        for (int e = 0; e < rows; ++e) {
          g[e] += node.grad[e] * SigmoidGrad(node.data[e]);
        }
        if (WantsGrad(pb1)) {
          ReduceIntoBroadcast(g, rows, 1, Broadcast::kScalar, pb1.get());
        }
        // MatMul's backward: dA into a zeroed grad for the hidden rows,
        // then dW1.
        std::vector<float> d_hidden;
        if (want_hidden) {
          d_hidden = AcquireZeroedBuffer(static_cast<size_t>(rows) * hidden);
          GemmGradA(g.data(), pw1->data.data(), d_hidden.data(), rows, hidden,
                    1);
        }
        if (WantsGrad(pw1)) {
          pw1->EnsureGrad();
          GemmGradB(
              [hd, hidden](int i, int k) {
                return hd[static_cast<size_t>(i) * hidden + k];
              },
              g.data(), pw1->grad.data(), rows, hidden, 1);
        }
        ReleaseBuffer(std::move(g));
        if (!want_hidden) return;
        // LinearRelu's backward: the ReLU mask as a multiply, the b0
        // reduce, then dW0 reading [x[src[i]] | x[dst[i]]] in place.
        ParallelRange(static_cast<int64_t>(d_hidden.size()), 1,
                      [&](int64_t first, int64_t last) {
                        for (int64_t i = first; i < last; ++i) {
                          d_hidden[i] =
                              d_hidden[i] * (hd[i] > 0.0f ? 1.0f : 0.0f);
                        }
                      });
        if (want_b0) {
          pb0->EnsureGrad();
          ReduceBroadcastInto(d_hidden, rows, hidden, Broadcast::kRow,
                              pb0->grad.data());
        }
        if (want_w0) {
          pw0->EnsureGrad();
          const float* xd = px->data.data();
          const int* si = src_copy->data();
          const int* di = dst_copy->data();
          GemmGradB(
              [xd, si, di, dim](int i, int k) {
                return k < dim
                           ? xd[static_cast<size_t>(si[i]) * dim + k]
                           : xd[static_cast<size_t>(di[i]) * dim + (k - dim)];
              },
              d_hidden.data(), pw0->grad.data(), rows, 2 * dim, hidden);
        }
        ReleaseBuffer(std::move(d_hidden));
      });
}

Tensor GatherAddLeakyRelu(const Tensor& s, const std::vector<int>& src,
                          const Tensor& t, const std::vector<int>& dst,
                          const Tensor& a, const std::vector<int>& key,
                          float negative_slope) {
  CHECK_EQ(s.cols(), 1);
  CHECK_EQ(t.cols(), 1);
  CHECK_EQ(a.cols(), 1);
  CHECK_EQ(src.size(), dst.size());
  CHECK_EQ(src.size(), key.size());
  const int num_edges = static_cast<int>(src.size());
  std::vector<float> out = AcquireBuffer(static_cast<size_t>(num_edges));
  const float* sd = s.data().data();
  const float* td = t.data().data();
  const float* ad = a.data().data();
  ParallelRange(num_edges, 1, [&](int64_t first, int64_t last) {
    for (int64_t e = first; e < last; ++e) {
      DCHECK_LT(src[e], s.rows());
      DCHECK_LT(dst[e], t.rows());
      DCHECK_LT(key[e], a.rows());
      const float v = (sd[src[e]] + td[dst[e]]) + ad[key[e]];
      out[e] = v > 0.0f ? v : negative_slope * v;
    }
  });
  auto ps = s.impl();
  auto pt = t.impl();
  auto pa = a.impl();
  auto src_copy = KeepForBackward(src);
  auto dst_copy = KeepForBackward(dst);
  auto key_copy = KeepForBackward(key);
  // Parents in the order the chain's graph search reaches them.
  return FinishOp(
      num_edges, 1, std::move(out), {ps, pt, pa},
      [ps, pt, pa, src_copy, dst_copy, key_copy,
       negative_slope](TensorImpl& node) {
        const int* si = src_copy->data();
        const int* di = dst_copy->data();
        const int* ki = key_copy->data();
        const int n = static_cast<int>(src_copy->size());
        // LeakyRelu's backward, on the recomputed pre-activation: the grad
        // every GatherRows node of the chain receives.
        std::vector<float> g = AcquireBuffer(static_cast<size_t>(n));
        for (int e = 0; e < n; ++e) {
          const float v =
              (ps->data[si[e]] + pt->data[di[e]]) + pa->data[ki[e]];
          g[e] = node.grad[e] * (v > 0.0f ? 1.0f : negative_slope);
        }
        // The chain's GatherRows backwards run a's, then t's, then s's,
        // each scattering in edge order.
        auto scatter = [&](const TensorImplPtr& p, const int* index) {
          if (!WantsGrad(p)) return;
          p->EnsureGrad();
          for (int e = 0; e < n; ++e) p->grad[index[e]] += g[e];
        };
        scatter(pa, ki);
        scatter(pt, di);
        scatter(ps, si);
        ReleaseBuffer(std::move(g));
      });
}

Tensor CachedOnesColumn(int rows) {
  CHECK_GE(rows, 0);
  // Thread-local so concurrent eval trials never share a mutable impl.
  // Callers treat the tensor as read-only; the cache is replaced only when
  // a different row count is requested.
  thread_local Tensor cache;
  if (!cache.defined() || cache.rows() != rows) {
    cache = Tensor::Full(rows, 1, 1.0f);
  }
  return cache;
}

Tensor SumAll(const Tensor& a) {
  double total = 0.0;
  for (float v : a.data()) total += v;
  auto pa = a.impl();
  return FinishOp(1, 1, {static_cast<float>(total)}, {pa},
                  [pa](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    for (auto& g : pa->grad) g += node.grad[0];
                  });
}

Tensor MeanAll(const Tensor& a) {
  return Scale(SumAll(a), 1.0f / static_cast<float>(std::max<int64_t>(
                              a.size(), 1)));
}

Tensor SumRows(const Tensor& a) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireZeroedBuffer(cols);
  for (int r = 0; r < rows; ++r) {
    const float* in = a.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) out[c] += in[c];
  }
  auto pa = a.impl();
  return FinishOp(1, cols, std::move(out), {pa},
                  [pa, rows, cols](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    for (int r = 0; r < rows; ++r) {
                      float* d = pa->grad.data() + static_cast<size_t>(r) * cols;
                      for (int c = 0; c < cols; ++c) d[c] += node.grad[c];
                    }
                  });
}

Tensor MeanRows(const Tensor& a) {
  return Scale(SumRows(a), 1.0f / static_cast<float>(std::max(a.rows(), 1)));
}

Tensor SumCols(const Tensor& a) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireZeroedBuffer(rows);
  for (int r = 0; r < rows; ++r) {
    const float* in = a.data().data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) out[r] += in[c];
  }
  auto pa = a.impl();
  return FinishOp(rows, 1, std::move(out), {pa},
                  [pa, rows, cols](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    for (int r = 0; r < rows; ++r) {
                      float* d = pa->grad.data() + static_cast<size_t>(r) * cols;
                      for (int c = 0; c < cols; ++c) d[c] += node.grad[r];
                    }
                  });
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  const int rows = a.rows();
  const int cols = a.cols();
  std::vector<float> out = AcquireBuffer(a.data().size());
  std::vector<float> norms(rows);
  ParallelRange(rows, 2 * cols, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float* in = a.data().data() + static_cast<size_t>(r) * cols;
      double total = 0.0;
      for (int c = 0; c < cols; ++c) {
        total += static_cast<double>(in[c]) * in[c];
      }
      const float norm = std::max(static_cast<float>(std::sqrt(total)), eps);
      norms[r] = norm;
      float* o = out.data() + static_cast<size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) o[c] = in[c] / norm;
    }
  });
  auto pa = a.impl();
  auto norms_ptr = std::make_shared<std::vector<float>>(std::move(norms));
  return FinishOp(
      rows, cols, std::move(out), {pa},
      [pa, norms_ptr, rows, cols](TensorImpl& node) {
        if (!WantsGrad(pa)) return;
        pa->EnsureGrad();
        ParallelRange(rows, 2 * cols, [&](int64_t first, int64_t last) {
          for (int r = static_cast<int>(first); r < last; ++r) {
            const float* y = node.data.data() + static_cast<size_t>(r) * cols;
            const float* g = node.grad.data() + static_cast<size_t>(r) * cols;
            float dot = 0.0f;
            for (int c = 0; c < cols; ++c) dot += g[c] * y[c];
            const float inv = 1.0f / (*norms_ptr)[r];
            float* d = pa->grad.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) d[c] += (g[c] - dot * y[c]) * inv;
          }
        });
      });
}

Tensor Dropout(const Tensor& a, float p, Rng* rng, bool training) {
  if (!training || p <= 0.0f) return a;
  CHECK(rng != nullptr);
  CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  std::vector<float> mask(a.data().size());
  std::vector<float> out = AcquireBuffer(a.data().size());
  for (size_t i = 0; i < out.size(); ++i) {
    mask[i] = rng->Bernoulli(keep) ? inv_keep : 0.0f;
    out[i] = a.data()[i] * mask[i];
  }
  auto pa = a.impl();
  auto mask_ptr = std::make_shared<std::vector<float>>(std::move(mask));
  return FinishOp(a.rows(), a.cols(), std::move(out), {pa},
                  [pa, mask_ptr](TensorImpl& node) {
                    if (!WantsGrad(pa)) return;
                    pa->EnsureGrad();
                    for (size_t i = 0; i < node.grad.size(); ++i) {
                      pa->grad[i] += node.grad[i] * (*mask_ptr)[i];
                    }
                  });
}

Tensor SegmentSoftmax(const Tensor& a, const std::vector<int>& segment,
                      int num_segments) {
  CHECK_EQ(a.cols(), 1);
  CHECK_EQ(static_cast<size_t>(a.rows()), segment.size());
  const int rows = a.rows();
  std::vector<float> seg_max(num_segments,
                             -std::numeric_limits<float>::infinity());
  for (int r = 0; r < rows; ++r) {
    DCHECK_GE(segment[r], 0);
    DCHECK_LT(segment[r], num_segments);
    seg_max[segment[r]] = std::max(seg_max[segment[r]], a.data()[r]);
  }
  std::vector<float> out = AcquireBuffer(rows);
  std::vector<float> seg_sum(num_segments, 0.0f);
  for (int r = 0; r < rows; ++r) {
    out[r] = std::exp(a.data()[r] - seg_max[segment[r]]);
    seg_sum[segment[r]] += out[r];
  }
  for (int r = 0; r < rows; ++r) {
    out[r] /= std::max(seg_sum[segment[r]], 1e-12f);
  }
  auto pa = a.impl();
  auto segment_copy = segment;
  return FinishOp(
      rows, 1, std::move(out), {pa},
      [pa, segment_copy, num_segments](TensorImpl& node) {
        if (!WantsGrad(pa)) return;
        pa->EnsureGrad();
        std::vector<float> seg_dot(num_segments, 0.0f);
        for (size_t r = 0; r < segment_copy.size(); ++r) {
          seg_dot[segment_copy[r]] += node.data[r] * node.grad[r];
        }
        for (size_t r = 0; r < segment_copy.size(); ++r) {
          pa->grad[r] +=
              node.data[r] * (node.grad[r] - seg_dot[segment_copy[r]]);
        }
      });
}

Tensor SegmentMeanRows(const Tensor& src, const std::vector<int>& segment,
                       int num_segments) {
  CHECK_EQ(static_cast<size_t>(src.rows()), segment.size());
  const int cols = src.cols();
  std::vector<float> counts(num_segments, 0.0f);
  for (int s : segment) {
    DCHECK_GE(s, 0);
    DCHECK_LT(s, num_segments);
    counts[s] += 1.0f;
  }
  std::vector<float> out =
      AcquireZeroedBuffer(static_cast<size_t>(num_segments) * cols);
  for (int r = 0; r < src.rows(); ++r) {
    const float inv = 1.0f / std::max(counts[segment[r]], 1.0f);
    const float* s = src.data().data() + static_cast<size_t>(r) * cols;
    float* o = out.data() + static_cast<size_t>(segment[r]) * cols;
    for (int c = 0; c < cols; ++c) o[c] += s[c] * inv;
  }
  auto ps = src.impl();
  auto segment_copy = segment;
  auto counts_ptr = std::make_shared<std::vector<float>>(std::move(counts));
  return FinishOp(
      num_segments, cols, std::move(out), {ps},
      [ps, segment_copy, counts_ptr, cols](TensorImpl& node) {
        if (!WantsGrad(ps)) return;
        ps->EnsureGrad();
        for (size_t r = 0; r < segment_copy.size(); ++r) {
          const float inv =
              1.0f / std::max((*counts_ptr)[segment_copy[r]], 1.0f);
          const float* g = node.grad.data() +
                           static_cast<size_t>(segment_copy[r]) * cols;
          float* d = ps->grad.data() + r * cols;
          for (int c = 0; c < cols; ++c) d[c] += g[c] * inv;
        }
      });
}

std::vector<int> ArgmaxRows(const Tensor& a) {
  std::vector<int> out(a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < a.cols(); ++c) {
      if (a.at(r, c) > a.at(r, best)) best = c;
    }
    out[r] = best;
  }
  return out;
}

namespace internal {

void GemmAccumulate(const float* a, const float* b, float* out, int rows,
                    int inner, int cols, bool skip_zeros) {
  if (skip_zeros) {
    GemmRowsDispatch<true>(a, b, out, 0, rows, inner, cols);
  } else {
    GemmRowsDispatch<false>(a, b, out, 0, rows, inner, cols);
  }
}

void GemmGradAccumulate(const float* g, const float* a, const float* b,
                        float* da, float* db, int rows, int inner, int cols) {
  GemmGradA(g, b, da, rows, inner, cols);
  GemmGradB(
      [a, inner](int i, int k) {
        return a[static_cast<size_t>(i) * inner + k];
      },
      g, db, rows, inner, cols);
}

}  // namespace internal

}  // namespace gp
