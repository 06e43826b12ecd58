// Differentiable tensor operations.
//
// Every function returns a new Tensor. When autograd is enabled (see
// NoGradGuard) and any input requires a gradient, the result records a
// backward function so Backward() can propagate through it.
//
// Broadcasting for binary elementwise ops: the second operand may be
//   - the same shape as the first,
//   - a 1 x C row vector (broadcast down the rows),
//   - an R x 1 column vector (broadcast across the columns), or
//   - a 1 x 1 scalar.

#ifndef GRAPHPROMPTER_TENSOR_OPS_H_
#define GRAPHPROMPTER_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace gp {

// ---------------------------------------------------------------- arithmetic

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
// Elementwise division a / b (same broadcast rules); b must be nonzero.
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Neg(const Tensor& a);
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);

// Matrix product: (R x K) * (K x C) -> (R x C).
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor Transpose(const Tensor& a);

// --------------------------------------------------------------- activations

Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
// Natural log; inputs are clamped to >= eps for stability.
Tensor Log(const Tensor& a, float eps = 1e-12f);
Tensor Square(const Tensor& a);

// Row-wise softmax / log-softmax (numerically stabilised).
Tensor Softmax(const Tensor& a);
Tensor LogSoftmax(const Tensor& a);

// Mean cross-entropy of row-wise logits against integer labels; returns a
// scalar (1x1). Gradient flows to `logits` only.
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels);

// ---------------------------------------------------------------- structure

// Concatenates along columns: (R x C1), (R x C2) -> (R x C1+C2).
Tensor ConcatCols(const Tensor& a, const Tensor& b);
// Concatenates along rows; all inputs must share the column count.
Tensor ConcatRows(const std::vector<Tensor>& parts);
// result[i] = a[index[i]]; rows may repeat. Backward scatter-adds.
Tensor GatherRows(const Tensor& a, const std::vector<int>& index);
// result has `num_rows` rows; result[index[i]] += src[i]. Backward gathers.
Tensor ScatterAddRows(const Tensor& src, const std::vector<int>& index,
                      int num_rows);
// Contiguous row slice [start, start+count).
Tensor SliceRows(const Tensor& a, int start, int count);
// Scales row i of `a` by scalar weights[i]; `weights` is R x 1.
Tensor RowScale(const Tensor& a, const Tensor& weights);

// ---------------------------------------------------------------- fused ops
//
// Each fused op computes exactly what the equivalent chain of primitive
// ops computes — same per-element floating-point operations in the same
// order — without materialising the intermediate tensors. DESIGN.md §9
// states the contract: fusion may never change FP summation order, so a
// fused pipeline is bitwise identical to the unfused one.

// Fuses ScatterAddRows(RowScale(GatherRows(x, src), w), dst, num_rows):
// result[dst[e]] += x[src[e]] * w[e], edges in order. `edge_weight` may be
// undefined, meaning unit weights (no multiply is performed, matching the
// unfused chain without the RowScale).
Tensor GatherScaleScatterSum(const Tensor& x, const std::vector<int>& src,
                             const std::vector<int>& dst, int num_rows,
                             const Tensor& edge_weight);

// Fuses the whole weighted-mean message-passing readout
//   Div(ScatterAddRows(RowScale(GatherRows(x, src), w), dst, n),
//       AddScalar(ScatterAddRows(w_or_ones, dst, n), eps))
// used by the GNN convolutions. Undefined `edge_weight` = unit weights
// (and no per-message multiply). A non-empty `weight_row` weighs edge e
// by edge_weight row weight_row[e] and adds its gradient terms straight
// into that row's grad: the same adds, in the same order, as the chain
// over a full edge list in which every other edge's terms are zero, where
// a GatherRows of the weights would sum each edge's two terms first.
Tensor GatherScaleScatterMean(const Tensor& x, const std::vector<int>& src,
                              const std::vector<int>& dst, int num_rows,
                              const Tensor& edge_weight, float eps,
                              const std::vector<int>& weight_row = {});

// Fuses Relu(Add(MatMul(x, weight), bias)); `bias` (1 x C) may be
// undefined for bias-free layers. Uses the same blocked GEMM kernel as
// MatMul, so the result is bitwise identical to the unfused chain.
Tensor LinearRelu(const Tensor& x, const Tensor& weight, const Tensor& bias);

// Fuses Add(MatMul(ConcatCols(GatherRows(x, index), feat), weight), bias):
// row e is [x[index[e]] | feat[e]] * weight + bias, with `weight` of
// (x.cols() + feat.cols()) x C and `bias` 1 x C. The x half is projected
// once per row of x by the blocked GEMM; each output row copies its
// projected row and resumes the same ascending-k accumulation over feat,
// so the GEMM runs over x.rows() rows instead of index.size(). Forward
// values and gradients are bitwise identical to the chain, as long as
// feat's autograd history does not reach x: x.grad then receives its
// contribution in the slot where the chain's GatherRows would add it.
Tensor GatherConcatLinear(const Tensor& x, const std::vector<int>& index,
                          const Tensor& feat, const Tensor& weight,
                          const Tensor& bias);

// Fuses the edge scorer MLP_phi of the Prompt Generator (Eqs. 2-3),
//   Sigmoid(Add(MatMul(LinearRelu(ConcatCols(GatherRows(x, src),
//                                            GatherRows(x, dst)), w0, b0),
//                      w1), b1)),
// for x (R x d), w0 (2d x H), b0 (1 x H), w1 (H x 1) and b1 (1 x 1): row e
// is the weight of edge (src[e], dst[e]). The x[src] half of layer 1 is
// projected once per row of x, as in GatherConcatLinear; each edge copies
// its projected row, resumes the same ascending-k accumulation over
// x[dst[e]], and finishes the bias, ReLU, layer 2, bias and sigmoid in a
// stack block of edges, so nothing edge-sized but the result is built.
// Under autograd the post-ReLU rows (E x H) are kept for the backward,
// which replays the chain's backward in order and gives w0, b0, w1 and b1
// the chain's gradients bit for bit. x must not require a gradient: no dx
// is computed.
Tensor EdgeMlpSigmoid(const Tensor& x, const std::vector<int>& src,
                      const std::vector<int>& dst, const Tensor& w0,
                      const Tensor& b0, const Tensor& w1, const Tensor& b1);

// Fuses LeakyRelu(Add(Add(GatherRows(s, src), GatherRows(t, dst)),
// GatherRows(a, key)), negative_slope) for single-column s, t and a: row e
// is LeakyRelu((s[src[e]] + t[dst[e]]) + a[key[e]]), in the chain's add
// order. The backward adds into a's, then t's, then s's grad, each in edge
// order, as the chain's GatherRows nodes do, and the op lists its parents
// in the order the chain's graph search reaches them. Gradients are then
// bitwise identical to the chain's as long as none of s, t and a is
// computed from another.
Tensor GatherAddLeakyRelu(const Tensor& s, const std::vector<int>& src,
                          const Tensor& t, const std::vector<int>& dst,
                          const Tensor& a, const std::vector<int>& key,
                          float negative_slope);

// Fuses Add(GatherRows(r, index), MatMul(a, w)) for a (R x K), w (K x C)
// and r (any rows x C); an empty `index` reads row i of r, which then has
// R rows (Add(r, MatMul(a, w))). Row i runs MatMul's blocked GEMM from
// zero and then adds r[index[i]] into it, the two operands Add adds. The
// backward scatter-adds the grad into r's grad in row order, as
// GatherRows's does, then runs MatMul's backward into a's and w's grads.
// The op lists its parents as [r, a, w], the order in which the chain's
// graph search reaches them, so gradients are bitwise identical to the
// chain's as long as neither r nor a is computed from the other.
Tensor GatherAddMatMul(const Tensor& r, const std::vector<int>& index,
                       const Tensor& a, const Tensor& w);

// Thread-cached all-ones column (rows x 1). Callers must treat the result
// as read-only: the same impl is shared until a different row count is
// requested. Replaces per-call Tensor::Full(rows, 1, 1.0f) in hot loops.
Tensor CachedOnesColumn(int rows);

// ---------------------------------------------------------------- reductions

Tensor SumAll(const Tensor& a);   // 1 x 1
Tensor MeanAll(const Tensor& a);  // 1 x 1
Tensor SumRows(const Tensor& a);  // 1 x C (sum over rows)
Tensor MeanRows(const Tensor& a);
Tensor SumCols(const Tensor& a);  // R x 1 (sum over columns)

// L2-normalises each row: y_i = x_i / max(||x_i||, eps).
Tensor RowL2Normalize(const Tensor& a, float eps = 1e-8f);

// Inverted dropout: scales surviving activations by 1/(1-p). Identity when
// `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, Rng* rng, bool training);

// ------------------------------------------------------------- segment ops

// Softmax over groups of rows: rows i with equal segment[i] form one softmax.
// `a` must be R x 1. Used for graph attention over variable-degree nodes.
Tensor SegmentSoftmax(const Tensor& a, const std::vector<int>& segment,
                      int num_segments);

// Per-segment mean of rows: result[s] = mean over {i : segment[i]==s} of
// src[i]; empty segments yield zero rows.
Tensor SegmentMeanRows(const Tensor& src, const std::vector<int>& segment,
                       int num_segments);

// ------------------------------------------------------- non-grad utilities

// Index of the max entry of each row.
std::vector<int> ArgmaxRows(const Tensor& a);

namespace internal {

// Bench/test hook for the cache-blocked GEMM micro-kernel behind MatMul
// and LinearRelu: out += a (rows x inner) * b (inner x cols), accumulating
// each out element in ascending-k order. `skip_zeros` toggles the
// zero-operand skip so bench_micro_ops can quantify its cost on dense
// inputs against its win on one-hot inputs (see README "Memory & kernels").
void GemmAccumulate(const float* a, const float* b, float* out, int rows,
                    int inner, int cols, bool skip_zeros = true);

// Test hook for the autograd GEMM backward behind MatMul, LinearRelu,
// GatherConcatLinear and EdgeMlpSigmoid: da += g * b^T and db += a^T * g
// for a (rows x inner), b (inner x cols) and g (rows x cols), through the
// same SIMD dispatch the ops' backward functions take.
void GemmGradAccumulate(const float* g, const float* a, const float* b,
                        float* da, float* db, int rows, int inner, int cols);

// AVX2 variant of the GEMM row kernel (tensor/gemm_avx2.cc), dispatched
// behind MatMul, LinearRelu, GatherConcatLinear and EdgeMlpSigmoid when
// Avx2Enabled(). Each out element starts from its stored value and adds
// its products in ascending k, mul then add without FMA contraction,
// skipping zero operands when `skip_zeros` is set, so it is bitwise
// identical to the scalar micro-kernel (pinned by
// tests/simd_kernels_test.cc and, transitively, tests/fused_ops_test.cc
// and the golden pins, which hold at any simd level). Lanes never reduce
// across each other:
//   * cols >= 8: lanes on output columns. Per row and 256-k block, the k
//     of the nonzero operands are compacted into a stack list without a
//     branch, and each panel of up to 64 columns (8 registers; then 32,
//     16 and 8, then a scalar tail) stays in registers over that list
//     and is stored once.
//   * cols < 8: lanes on 8 rows. A's column is gathered per k, and a
//     skipped operand's product is replaced with -0, which leaves the
//     accumulator's bits as the skip does. Leftover rows take the row
//     path.
// No heap scratch and no per-call set-up.
void GemmRowsAvx2(const float* a, const float* b, float* out,
                  int64_t row_begin, int64_t row_end, int inner, int cols,
                  bool skip_zeros);

// AVX2 kernels behind the autograd GEMM backward (tensor/gemm_avx2.cc),
// dispatched from GemmGradA/GemmGradB in ops.cc when Avx2Enabled(). Both
// keep the scalar loops' per-element sequence of IEEE operations, so they
// are bitwise identical to them (tests/simd_kernels_test.cc):
//
// dA rows [row_begin, row_end) += G * B^T, reading `bt`, B transposed
// (cols x inner). Lanes run over k; each dA element sums
// g[i][j] * bt[j][k] in ascending j into an accumulator that starts at
// +0, mul then add, with no zero skip, then adds it once into dA — the
// scalar `acc` loop's sequence. Lanes never reduce across each other.
void GemmGradAAvx2(const float* g, const float* bt, float* da,
                   int64_t row_begin, int64_t row_end, int inner, int cols);

// One dB row += sum over ascending i of a_col[i] * g[i][:], where a_col
// is A's column k (`rows` entries) and g is rows x cols. Lanes run over
// j, each panel of dB columns stays in registers across the i loop, and
// rows with a_col[i] == 0 are skipped — the scalar k-outer loop's
// sequence.
void GemmGradBAvx2(const float* a_col, const float* g, float* db_row,
                   int rows, int cols);

}  // namespace internal

}  // namespace gp

#endif  // GRAPHPROMPTER_TENSOR_OPS_H_
