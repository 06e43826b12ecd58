// The fused kernels promise bitwise equality with the unfused op chains
// they replace (DESIGN.md §9): identical per-element FP operations in an
// identical order, for both the forward values and the gradients. These
// tests hold them to exactly that — EXPECT_EQ on floats, no tolerances.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace gp {
namespace {

// Compares bit patterns, so -0 against +0 (or two NaN payloads) differs.
void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t a_bits, b_bits;
    std::memcpy(&a_bits, &a[i], sizeof(float));
    std::memcpy(&b_bits, &b[i], sizeof(float));
    EXPECT_EQ(a_bits, b_bits) << "index " << i << ": " << a[i] << " vs "
                              << b[i];
  }
}

struct EdgeFixture {
  Tensor x;       // (5 x 3) node features, requires_grad
  Tensor w;       // (7 x 1) edge weights, requires_grad
  std::vector<int> src{0, 1, 2, 3, 4, 0, 2};
  std::vector<int> dst{1, 0, 1, 4, 3, 2, 2};

  EdgeFixture() {
    Rng rng(99);
    x = Tensor::Randn(5, 3, &rng, 1.0f, /*requires_grad=*/true);
    w = Tensor::Randn(7, 1, &rng, 1.0f, /*requires_grad=*/true);
  }
};

TEST(FusedOpsTest, GatherScaleScatterSumMatchesUnfusedForward) {
  EdgeFixture f;
  NoGradGuard no_grad;
  Tensor unfused =
      ScatterAddRows(RowScale(GatherRows(f.x, f.src), f.w), f.dst, 5);
  Tensor fused = GatherScaleScatterSum(f.x, f.src, f.dst, 5, f.w);
  ExpectBitwiseEqual(fused.data(), unfused.data());
}

TEST(FusedOpsTest, GatherScaleScatterSumUnweightedMatchesForward) {
  EdgeFixture f;
  NoGradGuard no_grad;
  Tensor unfused = ScatterAddRows(GatherRows(f.x, f.src), f.dst, 5);
  Tensor fused = GatherScaleScatterSum(f.x, f.src, f.dst, 5, Tensor());
  ExpectBitwiseEqual(fused.data(), unfused.data());
}

TEST(FusedOpsTest, GatherScaleScatterSumMatchesUnfusedGradients) {
  EdgeFixture f;
  {
    Tensor out =
        ScatterAddRows(RowScale(GatherRows(f.x, f.src), f.w), f.dst, 5);
    Backward(SumAll(Mul(out, out)));
  }
  const std::vector<float> dx_ref = f.x.grad();
  const std::vector<float> dw_ref = f.w.grad();

  EdgeFixture g;
  {
    Tensor out = GatherScaleScatterSum(g.x, g.src, g.dst, 5, g.w);
    Backward(SumAll(Mul(out, out)));
  }
  ExpectBitwiseEqual(g.x.grad(), dx_ref);
  ExpectBitwiseEqual(g.w.grad(), dw_ref);
}

TEST(FusedOpsTest, GatherScaleScatterMeanMatchesUnfusedForward) {
  EdgeFixture f;
  NoGradGuard no_grad;
  Tensor sums =
      ScatterAddRows(RowScale(GatherRows(f.x, f.src), f.w), f.dst, 5);
  Tensor wsum = ScatterAddRows(f.w, f.dst, 5);
  Tensor unfused = Div(sums, AddScalar(wsum, 1e-6f));
  Tensor fused = GatherScaleScatterMean(f.x, f.src, f.dst, 5, f.w, 1e-6f);
  ExpectBitwiseEqual(fused.data(), unfused.data());
}

TEST(FusedOpsTest, GatherScaleScatterMeanUnweightedMatchesForward) {
  EdgeFixture f;
  NoGradGuard no_grad;
  Tensor sums = ScatterAddRows(GatherRows(f.x, f.src), f.dst, 5);
  Tensor ones = Tensor::Full(static_cast<int>(f.src.size()), 1, 1.0f);
  Tensor wsum = ScatterAddRows(ones, f.dst, 5);
  Tensor unfused = Div(sums, AddScalar(wsum, 1e-6f));
  Tensor fused =
      GatherScaleScatterMean(f.x, f.src, f.dst, 5, Tensor(), 1e-6f);
  ExpectBitwiseEqual(fused.data(), unfused.data());
}

TEST(FusedOpsTest, GatherScaleScatterMeanMatchesUnfusedGradients) {
  EdgeFixture f;
  {
    Tensor sums =
        ScatterAddRows(RowScale(GatherRows(f.x, f.src), f.w), f.dst, 5);
    Tensor wsum = ScatterAddRows(f.w, f.dst, 5);
    Tensor out = Div(sums, AddScalar(wsum, 1e-6f));
    Backward(SumAll(Mul(out, out)));
  }
  const std::vector<float> dx_ref = f.x.grad();
  const std::vector<float> dw_ref = f.w.grad();

  EdgeFixture g;
  {
    Tensor out = GatherScaleScatterMean(g.x, g.src, g.dst, 5, g.w, 1e-6f);
    Backward(SumAll(Mul(out, out)));
  }
  ExpectBitwiseEqual(g.x.grad(), dx_ref);
  ExpectBitwiseEqual(g.w.grad(), dw_ref);
}

// With weight rows, the op computes a subset of the destinations — here
// rows 1 and 2, over the edges into them — and weighs each edge by its row
// of the full weight column. Its forward rows and x's and w's grads must
// equal the full op's when only those rows' outputs matter, even when
// w.grad already holds a term, where summing each edge's two terms first
// (a GatherRows of w) would round differently.
TEST(FusedOpsTest, GatherScaleScatterMeanWeightRowsMatchFullEdgeList) {
  const std::vector<int> rows{1, 2};
  const std::vector<int> keep{0, 2, 5, 6};  // the edges into rows 1 and 2
  Rng rng(5);
  const Tensor readout = Tensor::Randn(2, 3, &rng);
  const Tensor other = Tensor::Randn(7, 1, &rng);
  auto loss = [&](const Tensor& rows_out, const Tensor& w) {
    return Add(SumAll(Mul(rows_out, readout)), SumAll(Mul(w, other)));
  };

  EdgeFixture f;
  const Tensor full = GatherRows(
      GatherScaleScatterMean(f.x, f.src, f.dst, 5, f.w, 1e-6f), rows);
  Backward(loss(full, f.w));

  EdgeFixture g;
  std::vector<int> src, dst;
  for (int e : keep) {
    src.push_back(g.src[e]);
    dst.push_back(g.dst[e] == 1 ? 0 : 1);
  }
  const Tensor part =
      GatherScaleScatterMean(g.x, src, dst, 2, g.w, 1e-6f, keep);
  ExpectBitwiseEqual(part.data(), full.data());
  Backward(loss(part, g.w));
  ExpectBitwiseEqual(g.x.grad(), f.x.grad());
  ExpectBitwiseEqual(g.w.grad(), f.w.grad());
}

TEST(FusedOpsTest, LinearReluMatchesUnfusedForwardAndGradients) {
  Rng rng(11);
  Tensor x_a = Tensor::Randn(9, 6, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w_a = Tensor::Randn(6, 5, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b_a = Tensor::Randn(1, 5, &rng, 1.0f, /*requires_grad=*/true);
  Tensor x_b = x_a.Clone();
  Tensor w_b = w_a.Clone();
  Tensor b_b = b_a.Clone();

  Tensor ref_fwd;
  {
    Tensor out = Relu(Add(MatMul(x_a, w_a), b_a));
    ref_fwd = out.Detach();
    Backward(SumAll(Mul(out, out)));
  }
  {
    Tensor out = LinearRelu(x_b, w_b, b_b);
    ExpectBitwiseEqual(out.data(), ref_fwd.data());
    Backward(SumAll(Mul(out, out)));
  }
  ExpectBitwiseEqual(x_b.grad(), x_a.grad());
  ExpectBitwiseEqual(w_b.grad(), w_a.grad());
  ExpectBitwiseEqual(b_b.grad(), b_a.grad());
}

TEST(FusedOpsTest, LinearReluWithoutBiasMatches) {
  Rng rng(13);
  Tensor x_a = Tensor::Randn(4, 3, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w_a = Tensor::Randn(3, 2, &rng, 1.0f, /*requires_grad=*/true);
  Tensor x_b = x_a.Clone();
  Tensor w_b = w_a.Clone();

  Tensor ref_fwd;
  {
    Tensor out = Relu(MatMul(x_a, w_a));
    ref_fwd = out.Detach();
    Backward(SumAll(out));
  }
  {
    Tensor out = LinearRelu(x_b, w_b, Tensor());
    ExpectBitwiseEqual(out.data(), ref_fwd.data());
    Backward(SumAll(out));
  }
  ExpectBitwiseEqual(x_b.grad(), x_a.grad());
  ExpectBitwiseEqual(w_b.grad(), w_a.grad());
}

// GatherConcatLinear against Add(MatMul(ConcatCols(GatherRows(x, index),
// feat), weight), bias). The loss also sends x through a second op, so
// x.grad sums contributions from two nodes and the slot where the fused
// node adds its share is pinned along with the values.
struct GatherConcatInputs {
  Tensor x, feat, weight, bias, other;
  std::vector<int> index;

  GatherConcatInputs Clone() const {
    GatherConcatInputs c;
    c.x = x.Clone();
    c.feat = feat.Clone();
    c.weight = weight.Clone();
    c.bias = bias.Clone();
    c.other = other.Clone();
    c.index = index;
    for (Tensor* t : {&c.x, &c.feat, &c.weight, &c.bias, &c.other}) {
      t->set_requires_grad(true);
    }
    return c;
  }
};

// Random inputs with exact zeros and -0 in x and feat and a non-zero bias
// (Linear biases start at zero, which would hide where the bias is added).
GatherConcatInputs MakeGatherConcatInputs(int x_rows, int x_cols,
                                          int feat_cols, int cols,
                                          std::vector<int> index,
                                          uint64_t seed) {
  Rng rng(seed);
  const int rows = static_cast<int>(index.size());
  GatherConcatInputs in;
  in.index = std::move(index);
  in.x = Tensor::Randn(x_rows, x_cols, &rng);
  in.feat = Tensor::Randn(rows, feat_cols, &rng);
  for (Tensor* t : {&in.x, &in.feat}) {
    std::vector<float>& d = t->mutable_data();
    for (size_t i = 0; i < d.size(); i += 5) d[i] = i % 2 ? -0.0f : 0.0f;
  }
  in.weight = Tensor::Randn(x_cols + feat_cols, cols, &rng);
  in.bias = Tensor::Randn(1, cols, &rng);
  in.other = Tensor::Randn(x_cols, 3, &rng);
  return in;
}

void ExpectGatherConcatLinearMatchesChain(const GatherConcatInputs& base) {
  auto loss = [](const GatherConcatInputs& in, const Tensor& out) {
    Tensor side = MatMul(in.x, in.other);
    return Add(SumAll(Mul(out, out)), SumAll(Mul(side, side)));
  };
  GatherConcatInputs a = base.Clone();
  Tensor ref_fwd;
  {
    Tensor out = Add(
        MatMul(ConcatCols(GatherRows(a.x, a.index), a.feat), a.weight),
        a.bias);
    ref_fwd = out.Detach();
    Backward(loss(a, out));
  }
  GatherConcatInputs b = base.Clone();
  {
    Tensor out = GatherConcatLinear(b.x, b.index, b.feat, b.weight, b.bias);
    ExpectBitwiseEqual(out.data(), ref_fwd.data());
    Backward(loss(b, out));
  }
  ExpectBitwiseEqual(b.x.grad(), a.x.grad());
  ExpectBitwiseEqual(b.feat.grad(), a.feat.grad());
  ExpectBitwiseEqual(b.weight.grad(), a.weight.grad());
  ExpectBitwiseEqual(b.bias.grad(), a.bias.grad());
  ExpectBitwiseEqual(b.other.grad(), a.other.grad());
}

TEST(FusedOpsTest, GatherConcatLinearRepeatedAndUnreferencedRows) {
  // Rows 1 and 3 of x are never gathered; 0, 2 and 4 repeat.
  ExpectGatherConcatLinearMatchesChain(MakeGatherConcatInputs(
      5, 3, 2, 4, {0, 2, 2, 4, 0, 4, 2}, 31));
}

TEST(FusedOpsTest, GatherConcatLinearTaskGraphShape) {
  // eval_manyway's task graph: 123 prompts, 4 queries, 40 label nodes
  // (N = 167), both edge directions (E = 10,160), d = 64, one-hot edge
  // attributes with 4 columns.
  const int prompts = 123, queries = 4, ways = 40, dim = 64;
  const int label_base = prompts + queries;
  std::vector<int> index;
  std::vector<float> onehot;
  for (int n = 0; n < label_base; ++n) {
    for (int c = 0; c < ways; ++c) {
      const bool is_query = n >= prompts;
      const bool is_true = !is_query && n % ways == c;
      for (const bool reverse : {false, true}) {
        index.push_back(reverse ? label_base + c : n);
        onehot.insert(onehot.end(),
                      {is_true ? 1.0f : 0.0f,
                       !is_query && !is_true ? 1.0f : 0.0f,
                       is_query ? 1.0f : 0.0f, reverse ? 1.0f : 0.0f});
      }
    }
  }
  ASSERT_EQ(index.size(), 10160u);
  GatherConcatInputs in = MakeGatherConcatInputs(label_base + ways, dim, 4,
                                                 dim, index, 37);
  in.feat = Tensor::FromData(static_cast<int>(index.size()), 4, onehot);
  ExpectGatherConcatLinearMatchesChain(in);
}

TEST(FusedOpsTest, GatherConcatLinearSpansTwoOutputPanels) {
  // 200 output columns: a full 128-wide GEMM panel and a partial one.
  ExpectGatherConcatLinearMatchesChain(MakeGatherConcatInputs(
      6, 10, 3, 200, {5, 0, 3, 3, 1, 0, 5, 2}, 41));
}

TEST(FusedOpsTest, GatherConcatLinearCrossesKBlockBoundary) {
  // 270 and 304 inner columns: the 256-wide k-block boundary falls in the
  // feat half, then in the x half.
  ExpectGatherConcatLinearMatchesChain(MakeGatherConcatInputs(
      4, 250, 20, 9, {1, 3, 1, 0, 2, 3}, 43));
  ExpectGatherConcatLinearMatchesChain(MakeGatherConcatInputs(
      4, 300, 4, 9, {2, 2, 0, 3, 1}, 47));
}

// EdgeMlpSigmoid against Sigmoid(Add(MatMul(LinearRelu(ConcatCols(
// GatherRows(x, src), GatherRows(x, dst)), w0, b0), w1), b1)). As in the
// generator, x carries no gradient and the parameters do. The loss runs the
// op twice over the shared parameters, on the edges and on the reversed
// edges, so each gradient sums two nodes' shares and the slot where each
// fused node adds its share is pinned along with the values.
struct EdgeMlpInputs {
  Tensor x, w0, b0, w1, b1;
  std::vector<int> src, dst;

  EdgeMlpInputs Clone() const {
    EdgeMlpInputs c = *this;
    c.x = x.Clone();
    for (Tensor* t : {&c.w0, &c.b0, &c.w1, &c.b1}) {
      *t = t->Clone();
      t->set_requires_grad(true);
    }
    return c;
  }
};

// Random inputs with exact zeros and -0 in x, and b0 pushed far below zero
// in every third hidden unit, so those units are dead on every edge and
// layer 2 skips their zero operands. Edges read rows at random, so rows
// repeat, and rows past `read_rows` are never read.
EdgeMlpInputs MakeEdgeMlpInputs(int x_rows, int read_rows, int dim,
                                int hidden, int num_edges, uint64_t seed) {
  Rng rng(seed);
  EdgeMlpInputs in;
  in.x = Tensor::Randn(x_rows, dim, &rng);
  std::vector<float>& xd = in.x.mutable_data();
  for (size_t i = 0; i < xd.size(); i += 5) xd[i] = i % 2 ? -0.0f : 0.0f;
  in.w0 = Tensor::Randn(2 * dim, hidden, &rng, 0.3f);
  in.b0 = Tensor::Randn(1, hidden, &rng);
  for (int j = 0; j < hidden; j += 3) in.b0.mutable_data()[j] = -1e4f;
  in.w1 = Tensor::Randn(hidden, 1, &rng);
  in.b1 = Tensor::Randn(1, 1, &rng);
  for (int e = 0; e < num_edges; ++e) {
    in.src.push_back(static_cast<int>(rng.UniformInt(read_rows)));
    in.dst.push_back(static_cast<int>(rng.UniformInt(read_rows)));
  }
  return in;
}

void ExpectEdgeMlpSigmoidMatchesChain(const EdgeMlpInputs& base) {
  auto chain = [](const EdgeMlpInputs& in, const std::vector<int>& src,
                  const std::vector<int>& dst) {
    Tensor pairs = ConcatCols(GatherRows(in.x, src), GatherRows(in.x, dst));
    return Sigmoid(
        Add(MatMul(LinearRelu(pairs, in.w0, in.b0), in.w1), in.b1));
  };
  auto fused = [](const EdgeMlpInputs& in, const std::vector<int>& src,
                  const std::vector<int>& dst) {
    return EdgeMlpSigmoid(in.x, src, dst, in.w0, in.b0, in.w1, in.b1);
  };
  auto run = [&base](const auto& op, std::vector<float>* forward) {
    EdgeMlpInputs in = base.Clone();
    {
      NoGradGuard no_grad;
      *forward = op(in, in.src, in.dst).data();
    }
    Tensor out = op(in, in.src, in.dst);
    ExpectBitwiseEqual(out.data(), *forward);  // the same under autograd
    Tensor reversed = op(in, in.dst, in.src);
    Backward(Add(SumAll(Mul(out, out)), SumAll(reversed)));
    return in;
  };
  std::vector<float> ref_fwd, fused_fwd;
  const EdgeMlpInputs a = run(chain, &ref_fwd);
  const EdgeMlpInputs b = run(fused, &fused_fwd);
  ExpectBitwiseEqual(fused_fwd, ref_fwd);
  ExpectBitwiseEqual(b.w0.grad(), a.w0.grad());
  ExpectBitwiseEqual(b.b0.grad(), a.b0.grad());
  ExpectBitwiseEqual(b.w1.grad(), a.w1.grad());
  ExpectBitwiseEqual(b.b1.grad(), a.b1.grad());
}

TEST(FusedOpsTest, EdgeMlpSigmoidRepeatedAndUnreadRows) {
  // 13 edges over rows 0-4 of 7; H = 12.
  ExpectEdgeMlpSigmoidMatchesChain(MakeEdgeMlpInputs(7, 5, 5, 12, 13, 51));
}

TEST(FusedOpsTest, EdgeMlpSigmoidSpansSeveralBlocks) {
  // 601 edges at d = 4, H = 16 run as one chunk of two stack blocks (409
  // edges, then 192) at inference.
  ExpectEdgeMlpSigmoidMatchesChain(
      MakeEdgeMlpInputs(90, 80, 4, 16, 601, 53));
}

TEST(FusedOpsTest, EdgeMlpSigmoidGeneratorShape) {
  // The generator's d = H = 64, over 1,237 edges in parallel chunks.
  ExpectEdgeMlpSigmoidMatchesChain(
      MakeEdgeMlpInputs(160, 150, 64, 64, 1237, 57));
}

TEST(FusedOpsTest, EdgeMlpSigmoidCrossesKBlockBoundary) {
  // d = 300: the x[src] projection crosses the 256-wide k block, and the
  // x[dst] half resumes inside the second one.
  ExpectEdgeMlpSigmoidMatchesChain(MakeEdgeMlpInputs(9, 8, 300, 12, 21, 59));
}

TEST(FusedOpsTest, EdgeMlpSigmoidRejectsXThatRequiresGrad) {
  EdgeMlpInputs in = MakeEdgeMlpInputs(4, 4, 3, 4, 5, 61);
  in.x.set_requires_grad(true);
  // Earlier cases started the thread pool; re-exec instead of forking it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      EdgeMlpSigmoid(in.x, in.src, in.dst, in.w0, in.b0, in.w1, in.b1),
      "no gradient for x");
}

// GatherAddLeakyRelu against LeakyRelu(Add(Add(GatherRows(s, src),
// GatherRows(t, dst)), GatherRows(a, key))). As in the task graph, s and t
// are projections of one node matrix h and a of a key attribute matrix, so
// h.grad sums the t and s contributions in the chain's order. The loss
// also sends s and h through second ops, so s.grad sums that op's share
// and the fused op's edge-ordered scatter, h.grad starts from a nonzero
// share, and the slots where the fused node's shares land are pinned along
// with the values.
struct LogitInputs {
  Tensor h, ws, wt, attr, wa, other, other_h;
  std::vector<int> src, dst, key;

  LogitInputs Clone() const {
    LogitInputs c = *this;
    for (Tensor* t :
         {&c.h, &c.ws, &c.wt, &c.attr, &c.wa, &c.other, &c.other_h}) {
      *t = t->Clone();
      t->set_requires_grad(true);
    }
    return c;
  }
};

void ExpectGatherAddLeakyReluMatchesChain(const LogitInputs& base,
                                          float slope) {
  auto run = [slope](const LogitInputs& in, bool fused) {
    Tensor s = MatMul(in.h, in.ws);
    Tensor t = MatMul(in.h, in.wt);
    Tensor a = MatMul(in.attr, in.wa);
    Tensor out =
        fused ? GatherAddLeakyRelu(s, in.src, t, in.dst, a, in.key, slope)
              : LeakyRelu(Add(Add(GatherRows(s, in.src), GatherRows(t, in.dst)),
                              GatherRows(a, in.key)),
                          slope);
    Tensor side = MatMul(s, in.other);
    Tensor side_h = MatMul(in.h, in.other_h);
    Backward(Add(Add(SumAll(Mul(out, out)), SumAll(Mul(side, side))),
                 SumAll(Mul(side_h, side_h))));
    return out.Detach();
  };
  LogitInputs a = base.Clone();
  const Tensor ref_fwd = run(a, /*fused=*/false);
  LogitInputs b = base.Clone();
  ExpectBitwiseEqual(run(b, /*fused=*/true).data(), ref_fwd.data());
  ExpectBitwiseEqual(b.h.grad(), a.h.grad());
  ExpectBitwiseEqual(b.ws.grad(), a.ws.grad());
  ExpectBitwiseEqual(b.wt.grad(), a.wt.grad());
  ExpectBitwiseEqual(b.attr.grad(), a.attr.grad());
  ExpectBitwiseEqual(b.wa.grad(), a.wa.grad());
  ExpectBitwiseEqual(b.other.grad(), a.other.grad());
  ExpectBitwiseEqual(b.other_h.grad(), a.other_h.grad());
}

LogitInputs MakeLogitInputs(int nodes, int keys, std::vector<int> src,
                            std::vector<int> dst, std::vector<int> key,
                            uint64_t seed) {
  Rng rng(seed);
  LogitInputs in;
  in.h = Tensor::Randn(nodes, 6, &rng);
  in.ws = Tensor::Randn(6, 1, &rng);
  in.wt = Tensor::Randn(6, 1, &rng);
  in.attr = Tensor::Randn(keys, 4, &rng);
  in.wa = Tensor::Randn(4, 1, &rng);
  in.other = Tensor::Randn(1, 3, &rng);
  in.other_h = Tensor::Randn(6, 2, &rng);
  in.src = std::move(src);
  in.dst = std::move(dst);
  in.key = std::move(key);
  return in;
}

TEST(FusedOpsTest, GatherAddLeakyReluRepeatedIndices) {
  // Sources, destinations and keys all repeat; node 4 is never gathered.
  const LogitInputs in = MakeLogitInputs(
      5, 3, {0, 2, 2, 1, 0, 3, 2, 0}, {1, 1, 3, 0, 2, 1, 0, 3},
      {0, 2, 2, 1, 0, 1, 2, 0}, 53);
  ExpectGatherAddLeakyReluMatchesChain(in, 0.2f);
  ExpectGatherAddLeakyReluMatchesChain(in, 0.0f);
}

TEST(FusedOpsTest, GatherAddLeakyReluOneKeyPerEdge) {
  // The task graph's autograd layout: every edge is its own key.
  std::vector<int> src, dst, key;
  for (int e = 0; e < 24; ++e) {
    src.push_back(e % 7);
    dst.push_back((3 * e + 1) % 7);
    key.push_back(e);
  }
  ExpectGatherAddLeakyReluMatchesChain(
      MakeLogitInputs(7, 24, src, dst, key, 59), 0.2f);
}

TEST(FusedOpsTest, GemmAccumulateSkipTogglesAgreeOnDenseInputs) {
  Rng rng(23);
  const int rows = 12, inner = 17, cols = 33;
  Tensor a = Tensor::Randn(rows, inner, &rng);
  Tensor b = Tensor::Randn(inner, cols, &rng);
  std::vector<float> with_skip(static_cast<size_t>(rows) * cols, 0.0f);
  std::vector<float> without(static_cast<size_t>(rows) * cols, 0.0f);
  internal::GemmAccumulate(a.data().data(), b.data().data(), with_skip.data(),
                           rows, inner, cols, /*skip_zeros=*/true);
  internal::GemmAccumulate(a.data().data(), b.data().data(), without.data(),
                           rows, inner, cols, /*skip_zeros=*/false);
  // Dense (no exact zeros with probability 1): both paths perform the same
  // additions, so the results are bitwise equal — and match MatMul.
  ExpectBitwiseEqual(with_skip, without);
  NoGradGuard no_grad;
  ExpectBitwiseEqual(with_skip, MatMul(a, b).data());
}

TEST(FusedOpsTest, GemmAccumulateHandlesOneHotRows) {
  // One-hot lhs selects rows of b exactly; the skip path must produce the
  // identical selection.
  const int classes = 7, cols = 5;
  Rng rng(29);
  Tensor b = Tensor::Randn(classes, cols, &rng);
  std::vector<int> labels{3, 0, 6, 3};
  Tensor onehot = Tensor::OneHot(labels, classes);
  std::vector<float> out(labels.size() * cols, 0.0f);
  internal::GemmAccumulate(onehot.data().data(), b.data().data(), out.data(),
                           static_cast<int>(labels.size()), classes, cols,
                           /*skip_zeros=*/true);
  for (size_t r = 0; r < labels.size(); ++r) {
    for (int c = 0; c < cols; ++c) {
      EXPECT_EQ(out[r * cols + c], b.at(labels[r], c));
    }
  }
}

TEST(FusedOpsTest, CachedOnesColumnSharesStorageAndIsAllOnes) {
  Tensor a = CachedOnesColumn(40);
  EXPECT_EQ(a.rows(), 40);
  EXPECT_EQ(a.cols(), 1);
  for (float v : a.data()) EXPECT_EQ(v, 1.0f);
  Tensor b = CachedOnesColumn(40);
  EXPECT_EQ(a.raw(), b.raw());  // same cached impl, no new allocation
  Tensor c = CachedOnesColumn(8);
  EXPECT_EQ(c.rows(), 8);
  EXPECT_NE(c.raw(), a.raw());
  for (float v : c.data()) EXPECT_EQ(v, 1.0f);
}

}  // namespace
}  // namespace gp
