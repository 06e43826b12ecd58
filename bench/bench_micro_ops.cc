// Microbenchmarks of the core primitives the GraphPrompter pipeline is
// built from: dense matmul, gather/scatter message passing, random-walk
// sampling, kNN scoring, LFU cache operations, and the task-graph forward
// pass. Useful for tracking performance regressions in the substrate.
//
// Beyond the google-benchmark cases, the binary always runs a headline
// section that times the fused kernels (GatherScaleScatterMean,
// LinearRelu) against the primitive-op chains they replaced, measures the
// `av == 0` skip branch of the blocked GEMM on dense vs one-hot inputs,
// and reports the buffer-pool hit rate on a training-step workload. The
// headline numbers are written to <outdir>/BENCH_micro_ops.json so the
// fused-kernel and allocator gains stay pinned in the perf trajectory.
//
// Flags (in addition to google-benchmark's own --benchmark_* flags):
//   --outdir=DIR        report directory (default "bench_out", git-ignored;
//                       --outdir=results regenerates the committed
//                       results/BENCH_micro_ops.json)
//   --headline_reps=N   repetitions per headline measurement (default 15)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/knn_retrieval.h"
#include "core/lfu_cache.h"
#include "core/task_graph.h"
#include "data/datasets.h"
#include "gnn/sage_conv.h"
#include "graph/sampler.h"
#include "nn/mlp.h"
#include "obs/bench_report.h"
#include "obs/export.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace gp {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Randn(n, n, &rng);
  Tensor b = Tensor::Randn(n, n, &rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GatherScatter(benchmark::State& state) {
  const int edges = static_cast<int>(state.range(0));
  Rng rng(2);
  Tensor x = Tensor::Randn(1000, 64, &rng);
  std::vector<int> src(edges), dst(edges);
  for (int e = 0; e < edges; ++e) {
    src[e] = static_cast<int>(rng.UniformInt(1000));
    dst[e] = static_cast<int>(rng.UniformInt(1000));
  }
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor out = ScatterAddRows(GatherRows(x, src), dst, 1000);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_GatherScatter)->Arg(1000)->Arg(10000)->Arg(50000);

// The fused weighted-mean aggregation (SAGE readout) against the
// primitive chain it replaced; both weighted so the comparison covers the
// RowScale elision too.
struct EdgeFixture {
  int nodes = 0;
  Tensor x;
  Tensor w;
  std::vector<int> src, dst;

  EdgeFixture(int nodes_in, int edges, int dim, uint64_t seed)
      : nodes(nodes_in) {
    Rng rng(seed);
    x = Tensor::Randn(nodes, dim, &rng);
    w = Tensor::Randn(edges, 1, &rng);
    for (auto& v : w.mutable_data()) v = v * v + 0.1f;  // positive weights
    src.resize(edges);
    dst.resize(edges);
    for (int e = 0; e < edges; ++e) {
      src[e] = static_cast<int>(rng.UniformInt(nodes));
      dst[e] = static_cast<int>(rng.UniformInt(nodes));
    }
  }
};

Tensor UnfusedMeanChain(const EdgeFixture& f) {
  Tensor messages = RowScale(GatherRows(f.x, f.src), f.w);
  Tensor sums = ScatterAddRows(messages, f.dst, f.nodes);
  Tensor wsum = ScatterAddRows(f.w, f.dst, f.nodes);
  return Div(sums, AddScalar(wsum, 1e-6f));
}

Tensor FusedMeanChain(const EdgeFixture& f) {
  return GatherScaleScatterMean(f.x, f.src, f.dst, f.nodes, f.w, 1e-6f);
}

void BM_MeanAggregate(benchmark::State& state) {
  const bool fused = state.range(0) == 1;
  const int edges = static_cast<int>(state.range(1));
  EdgeFixture f(1000, edges, 64, 11);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor out = fused ? FusedMeanChain(f) : UnfusedMeanChain(f);
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_MeanAggregate)
    ->ArgNames({"fused", "edges"})
    ->Args({0, 10000})
    ->Args({1, 10000})
    ->Args({0, 50000})
    ->Args({1, 50000});

// The fused linear+relu hidden-layer kernel against MatMul/Add/Relu.
void BM_LinearRelu(benchmark::State& state) {
  const bool fused = state.range(0) == 1;
  const int n = static_cast<int>(state.range(1));
  Rng rng(13);
  Tensor x = Tensor::Randn(n, n, &rng);
  Tensor weight = Tensor::Randn(n, n, &rng);
  Tensor bias = Tensor::Randn(1, n, &rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor out = fused ? LinearRelu(x, weight, bias)
                       : Relu(Add(MatMul(x, weight), bias));
    benchmark::DoNotOptimize(out.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_LinearRelu)
    ->ArgNames({"fused", "n"})
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 256})
    ->Args({1, 256});

// The `av == 0.0f` skip branch in the GEMM micro-kernel: near-free on
// dense inputs, and a large win on the one-hot label matrices the task
// graph multiplies (see internal::GemmAccumulate in tensor/ops.h).
void BM_GemmAccumulate(benchmark::State& state) {
  const bool one_hot = state.range(0) == 1;
  const bool skip = state.range(1) == 1;
  const int n = 256;
  Rng rng(17);
  Tensor a = Tensor::Randn(n, n, &rng);
  if (one_hot) {
    auto& data = a.mutable_data();
    std::fill(data.begin(), data.end(), 0.0f);
    for (int i = 0; i < n; ++i) {
      data[static_cast<size_t>(i) * n + rng.UniformInt(n)] = 1.0f;
    }
  }
  Tensor b = Tensor::Randn(n, n, &rng);
  std::vector<float> out(static_cast<size_t>(n) * n);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    internal::GemmAccumulate(a.data().data(), b.data().data(), out.data(), n, n, n, skip);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmAccumulate)
    ->ArgNames({"one_hot", "skip"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

// The forward GEMM at the dense layers' shapes: 512 rows x inner ->
// cols, issued in the row chunks MatMul's ParallelRange hands the kernel
// (at least 2^15 multiply-adds per call, one call below twice that): 8
// rows at 64 -> 64, 4 at 128 -> 64, all 512 at 64 -> 1. relu=1 clamps A
// at zero, so about half its entries are zero, like a ReLU output.
// Items are output rows.
void BM_GemmLayerShapes(benchmark::State& state) {
  const int inner = static_cast<int>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  const bool relu = state.range(2) == 1;
  const int chunk = static_cast<int>(state.range(3));
  const int rows = 512;
  Rng rng(41);
  Tensor a = Tensor::Randn(rows, inner, &rng);
  if (relu) {
    for (float& x : a.mutable_data()) x = std::max(x, 0.0f);
  }
  Tensor b = Tensor::Randn(inner, cols, &rng);
  std::vector<float> out(static_cast<size_t>(rows) * cols);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    for (int r = 0; r < rows; r += chunk) {
      internal::GemmAccumulate(a.data().data() + static_cast<size_t>(r) * inner,
                               b.data().data(),
                               out.data() + static_cast<size_t>(r) * cols,
                               std::min(chunk, rows - r), inner, cols);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GemmLayerShapes)
    ->ArgNames({"inner", "cols", "relu", "chunk"})
    ->Args({64, 64, 1, 8})
    ->Args({128, 64, 0, 4})
    ->Args({64, 1, 0, 512});

void BM_MatMulBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    Tensor a = Tensor::Randn(n, n, &rng, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::Randn(n, n, &rng, 1.0f, /*requires_grad=*/true);
    Backward(SumAll(MatMul(a, b)));
    benchmark::DoNotOptimize(a.raw());
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(32)->Arg(64)->Arg(128);

// LinearRelu forward + backward at two of the pretrain workload's hot
// backward GEMM shapes (rows x inner -> 64 columns), with the SIMD level
// pinned per case: simd=0 runs the scalar GemmGradA/GemmGradB loops and
// simd=1 the AVX2 backward kernels (tensor/gemm_avx2.cc).
void BM_LinearReluBackward(benchmark::State& state) {
  const SimdLevel level =
      state.range(0) == 1 ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  if (level == SimdLevel::kAvx2 &&
      DetectedSimdLevel() != SimdLevel::kAvx2) {
    state.SkipWithError("no AVX2 on this CPU");
    return;
  }
  const int rows = static_cast<int>(state.range(1));
  const int inner = static_cast<int>(state.range(2));
  const int cols = 64;
  Rng rng(37);
  Tensor x = Tensor::Randn(rows, inner, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(inner, cols, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn(1, cols, &rng, 1.0f, /*requires_grad=*/true);
  const SimdLevel saved = ActiveSimdLevel();
  SetSimdLevel(level);
  for (auto _ : state) {
    Backward(SumAll(LinearRelu(x, w, b)));
    benchmark::DoNotOptimize(w.grad().data());
    benchmark::ClobberMemory();
  }
  SetSimdLevel(saved);
  // One forward and two backward GEMMs.
  state.SetItemsProcessed(state.iterations() * 6LL * rows * inner * cols);
}
BENCHMARK(BM_LinearReluBackward)
    ->ArgNames({"simd", "rows", "inner"})
    ->Args({0, 570, 64})
    ->Args({1, 570, 64})
    ->Args({0, 1200, 128})
    ->Args({1, 1200, 128});

// The generator's edge scorer MLP_phi (d = H = 64) as one EdgeMlpSigmoid
// call (fused=1) against the chain it replaced, Sigmoid(Mlp::Forward(
// ConcatCols(GatherRows, GatherRows))) (fused=0), at eval_manyway's
// inference shape (train=0: 1,125 distinct endpoint nodes, 11,410 unique
// edges, no grad) and pretrain's (train=1: 260 feature rows, 811 edges,
// forward and backward). per_edge is the wall time per scored edge.
void BM_EdgeMlpSigmoid(benchmark::State& state) {
  const bool fused = state.range(0) == 1;
  const bool train = state.range(1) == 1;
  const int rows = train ? 260 : 1125;
  const int edges = train ? 811 : 11410;
  const int dim = 64;
  Rng rng(43);
  Tensor x = Tensor::Randn(rows, dim, &rng);
  Mlp mlp({2 * dim, 64, 1}, &rng);
  std::vector<int> src(edges), dst(edges);
  for (int e = 0; e < edges; ++e) {
    src[e] = static_cast<int>(rng.UniformInt(rows));
    dst[e] = static_cast<int>(rng.UniformInt(rows));
  }
  const Linear& hidden = mlp.layer(0);
  const Linear& out = mlp.layer(1);
  auto weights = [&] {
    if (fused) {
      return EdgeMlpSigmoid(x, src, dst, hidden.weight(), hidden.bias(),
                            out.weight(), out.bias());
    }
    return Sigmoid(
        mlp.Forward(ConcatCols(GatherRows(x, src), GatherRows(x, dst))));
  };
  for (auto _ : state) {
    if (train) {
      Backward(SumAll(weights()));
      mlp.ZeroGrad();
    } else {
      NoGradGuard no_grad;
      benchmark::DoNotOptimize(weights().raw());
    }
  }
  state.counters["per_edge"] = benchmark::Counter(
      edges, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}
BENCHMARK(BM_EdgeMlpSigmoid)
    ->UseRealTime()
    ->ArgNames({"fused", "train"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

// GNN_D's first SAGE layer at eval_manyway's inference shape (d = 64):
// 8,263 output rows over 24,886 weighted edges, from a packed union of
// 15,000 rows that holds 1,125 distinct nodes. merged=1 reads one input row
// per node, so SageConv projects its self term once per node and
// GatherAddMatMul gathers it; merged=0 reads one input row per packed row
// and gathers the output rows before projecting them. Both give the same
// bits. per_row is the wall time per output row.
void BM_SageFirstLayer(benchmark::State& state) {
  const bool merged = state.range(0) == 1;
  const int dim = 64, nodes = 1125, packed = 15000, num_out = 8263;
  const int edges = 24886;
  Rng rng(47);
  SageConv conv(dim, dim, &rng);
  const Tensor node_x = Tensor::Randn(nodes, dim, &rng);
  std::vector<int> node_of(packed);
  for (int r = 0; r < packed; ++r) {
    node_of[r] = r < nodes ? r : static_cast<int>(rng.UniformInt(nodes));
  }
  GnnLayerPlan layer;
  for (int i = 0; i < num_out; ++i) {
    layer.self.push_back(merged ? node_of[i] : i);
  }
  for (int e = 0; e < edges; ++e) {
    const int src = static_cast<int>(rng.UniformInt(packed));
    layer.src.push_back(merged ? node_of[src] : src);
    layer.dst.push_back(static_cast<int>(rng.UniformInt(num_out)));
    layer.weight.push_back(e);
  }
  const Tensor x = merged ? node_x : GatherRows(node_x, node_of);
  std::vector<float> w(edges);
  for (float& v : w) v = 0.05f + 0.9f * rng.UniformFloat();
  const Tensor edge_weight = Tensor::FromData(edges, 1, std::move(w));
  NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, layer, edge_weight).raw());
  }
  state.counters["per_row"] = benchmark::Counter(
      num_out, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}
BENCHMARK(BM_SageFirstLayer)
    ->UseRealTime()
    ->ArgNames({"merged"})
    ->Arg(0)
    ->Arg(1);

// A training-style step (MLP forward + backward) with the buffer pool on
// vs off: the op graph churns dozens of same-shaped tensors per step, so
// recycled storage is the difference between malloc traffic and reuse.
void BM_TrainStepPool(benchmark::State& state) {
  const bool pooled = state.range(0) == 1;
  Rng rng(19);
  Mlp mlp({128, 256, 256, 64}, &rng);
  Tensor x = Tensor::Randn(64, 128, &rng);
  SetBufferPoolEnabled(pooled);
  {
    PoolScope scope;
    for (auto _ : state) {
      Backward(SumAll(mlp.Forward(x)));
      mlp.ZeroGrad();
      benchmark::DoNotOptimize(x.raw());
    }
  }
  SetBufferPoolEnabled(true);
}
BENCHMARK(BM_TrainStepPool)->ArgNames({"pool"})->Arg(0)->Arg(1);

void BM_RandomWalkSampling(benchmark::State& state) {
  static DatasetBundle ds = MakeFb15kSim(0.5, 7);
  SamplerConfig config;
  config.num_hops = static_cast<int>(state.range(0));
  config.max_nodes = 30;
  const GraphAdapter view(ds.graph);
  const Sampler sampler(&view, config);
  Rng rng(4);
  for (auto _ : state) {
    const int node = static_cast<int>(rng.UniformInt(ds.graph.num_nodes()));
    Subgraph sg = sampler.SampleAroundNode(node, &rng);
    benchmark::DoNotOptimize(sg.nodes.data());
  }
}
BENCHMARK(BM_RandomWalkSampling)->Arg(1)->Arg(2)->Arg(3);

void BM_KnnSelection(benchmark::State& state) {
  const int ways = static_cast<int>(state.range(0));
  const int candidates = ways * 10;
  Rng rng(5);
  Tensor prompts = Tensor::Randn(candidates, 64, &rng);
  Tensor queries = Tensor::Randn(32, 64, &rng);
  Tensor prompt_imp = Tensor::Randn(candidates, 1, &rng);
  Tensor query_imp = Tensor::Randn(32, 1, &rng);
  std::vector<int> labels(candidates);
  for (int i = 0; i < candidates; ++i) labels[i] = i % ways;
  KnnConfig config;
  config.shots = 3;
  for (auto _ : state) {
    const auto sel = SelectPrompts(prompts, prompt_imp, labels, queries,
                                   query_imp, ways, config);
    benchmark::DoNotOptimize(sel.selected.data());
  }
}
BENCHMARK(BM_KnnSelection)->Arg(5)->Arg(20)->Arg(40);

void BM_LfuCache(benchmark::State& state) {
  LfuCache cache(3);
  Rng rng(6);
  std::vector<int64_t> ids;
  for (auto _ : state) {
    CacheEntry entry;
    entry.embedding = {1.0f, 2.0f};
    entry.pseudo_label = 1;
    const int64_t id = cache.Insert(std::move(entry));
    ids.push_back(id);
    cache.Touch(ids[rng.UniformInt(ids.size())]);
    benchmark::DoNotOptimize(cache.size());
  }
}
BENCHMARK(BM_LfuCache);

void BM_TaskGraphForward(benchmark::State& state) {
  const int ways = static_cast<int>(state.range(0));
  Rng rng(7);
  TaskGraphConfig config;
  TaskGraphNet net(config, &rng);
  Tensor prompts = Tensor::Randn(ways * 3, 64, &rng);
  std::vector<int> labels(ways * 3);
  for (int i = 0; i < ways * 3; ++i) labels[i] = i / 3;
  Tensor queries = Tensor::Randn(4, 64, &rng);
  NoGradGuard no_grad;
  for (auto _ : state) {
    const auto out = net.Forward(prompts, labels, queries, ways);
    benchmark::DoNotOptimize(out.query_scores.raw());
  }
}
BENCHMARK(BM_TaskGraphForward)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

// ---------------------------------------------------------------------------
// Headline section: the numbers the perf trajectory tracks. Median-of-N
// wall time keeps single-run noise out of the committed baselines.

double MedianMs(int reps, const std::function<void()>& fn) {
  fn();  // warm up: pool caches, lazy pools, page faults
  std::vector<double> times_ms;
  times_ms.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    times_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  std::sort(times_ms.begin(), times_ms.end());
  return times_ms[times_ms.size() / 2];
}

double ReductionPct(double before_ms, double after_ms) {
  return before_ms > 0.0 ? 100.0 * (before_ms - after_ms) / before_ms : 0.0;
}

void RunHeadline(const std::string& outdir, int reps) {
  BenchReporter report("micro_ops");
  report.AddConfig("headline_reps", static_cast<int64_t>(reps));
  report.AddConfig("nodes", static_cast<int64_t>(2000));
  report.AddConfig("edges", static_cast<int64_t>(40000));
  report.AddConfig("dim", static_cast<int64_t>(64));
  std::printf("\n=== headline: fused kernels & buffer pool ===\n");

  PoolScope scope;

  // Fused message-passing chain (the SAGE weighted-mean readout).
  EdgeFixture f(2000, 40000, 64, 23);
  const double mean_unfused = MedianMs(reps, [&] {
    NoGradGuard no_grad;
    benchmark::DoNotOptimize(UnfusedMeanChain(f));
  });
  const double mean_fused = MedianMs(reps, [&] {
    NoGradGuard no_grad;
    benchmark::DoNotOptimize(FusedMeanChain(f));
  });
  report.AddMetric("mean_chain/unfused_ms", mean_unfused, "ms");
  report.AddMetric("mean_chain/fused_ms", mean_fused, "ms");
  report.AddMetric("mean_chain/reduction_pct",
                   ReductionPct(mean_unfused, mean_fused), "%");
  std::printf("mean aggregation   unfused %.3f ms  fused %.3f ms  (-%.1f%%)\n",
              mean_unfused, mean_fused,
              ReductionPct(mean_unfused, mean_fused));

  // Fused hidden-layer kernel.
  Rng rng(29);
  Tensor lx = Tensor::Randn(256, 128, &rng);
  Tensor lw = Tensor::Randn(128, 128, &rng);
  Tensor lb = Tensor::Randn(1, 128, &rng);
  const double lin_unfused = MedianMs(reps, [&] {
    NoGradGuard no_grad;
    benchmark::DoNotOptimize(Relu(Add(MatMul(lx, lw), lb)));
  });
  const double lin_fused = MedianMs(reps, [&] {
    NoGradGuard no_grad;
    benchmark::DoNotOptimize(LinearRelu(lx, lw, lb));
  });
  report.AddMetric("linear_relu/unfused_ms", lin_unfused, "ms");
  report.AddMetric("linear_relu/fused_ms", lin_fused, "ms");
  report.AddMetric("linear_relu/reduction_pct",
                   ReductionPct(lin_unfused, lin_fused), "%");
  std::printf("linear+relu        unfused %.3f ms  fused %.3f ms  (-%.1f%%)\n",
              lin_unfused, lin_fused, ReductionPct(lin_unfused, lin_fused));

  // GEMM skip branch: dense cost vs one-hot payoff.
  const int n = 256;
  Tensor dense = Tensor::Randn(n, n, &rng);
  Tensor onehot = Tensor::Zeros(n, n);
  for (int i = 0; i < n; ++i) {
    onehot.mutable_data()[static_cast<size_t>(i) * n + rng.UniformInt(n)] =
        1.0f;
  }
  Tensor rhs = Tensor::Randn(n, n, &rng);
  std::vector<float> acc(static_cast<size_t>(n) * n);
  auto gemm = [&](const Tensor& a, bool skip) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    internal::GemmAccumulate(a.data().data(), rhs.data().data(), acc.data(), n, n, n, skip);
    benchmark::DoNotOptimize(acc.data());
  };
  const double dense_noskip = MedianMs(reps, [&] { gemm(dense, false); });
  const double dense_skip = MedianMs(reps, [&] { gemm(dense, true); });
  const double onehot_noskip = MedianMs(reps, [&] { gemm(onehot, false); });
  const double onehot_skip = MedianMs(reps, [&] { gemm(onehot, true); });
  report.AddMetric("gemm_skip/dense_noskip_ms", dense_noskip, "ms");
  report.AddMetric("gemm_skip/dense_skip_ms", dense_skip, "ms");
  report.AddMetric("gemm_skip/onehot_noskip_ms", onehot_noskip, "ms");
  report.AddMetric("gemm_skip/onehot_skip_ms", onehot_skip, "ms");
  report.AddMetric("gemm_skip/onehot_speedup",
                   onehot_skip > 0.0 ? onehot_noskip / onehot_skip : 0.0,
                   "x");
  std::printf(
      "gemm skip branch   dense %.3f -> %.3f ms, one-hot %.3f -> %.3f ms "
      "(%.1fx)\n",
      dense_noskip, dense_skip, onehot_noskip, onehot_skip,
      onehot_skip > 0.0 ? onehot_noskip / onehot_skip : 0.0);

  // Buffer pool: hit rate and step time on a training-style workload.
  Rng mlp_rng(31);
  Mlp mlp({128, 256, 256, 64}, &mlp_rng);
  Tensor tx = Tensor::Randn(64, 128, &mlp_rng);
  auto train_step = [&] {
    Backward(SumAll(mlp.Forward(tx)));
    mlp.ZeroGrad();
  };
  train_step();  // warm the pool before counting
  const BufferPoolStats before = PoolStatsSnapshot();
  const double pooled_ms = MedianMs(reps, train_step);
  const BufferPoolStats after = PoolStatsSnapshot();
  const int64_t hits = after.hits - before.hits;
  const int64_t misses = after.misses - before.misses;
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  SetBufferPoolEnabled(false);
  const double unpooled_ms = MedianMs(reps, train_step);
  SetBufferPoolEnabled(true);
  report.AddMetric("pool/train_step_unpooled_ms", unpooled_ms, "ms");
  report.AddMetric("pool/train_step_pooled_ms", pooled_ms, "ms");
  report.AddMetric("pool/train_step_reduction_pct",
                   ReductionPct(unpooled_ms, pooled_ms), "%");
  report.AddMetric("pool/hit_rate", hit_rate, "");
  std::printf(
      "buffer pool        off %.3f ms  on %.3f ms  (-%.1f%%), hit rate "
      "%.3f\n",
      unpooled_ms, pooled_ms, ReductionPct(unpooled_ms, pooled_ms),
      hit_rate);

  const Status status = report.WriteJson(outdir);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  } else {
    std::printf("wrote %s/BENCH_micro_ops.json\n", outdir.c_str());
  }
}

}  // namespace
}  // namespace gp

// Expanded BENCHMARK_MAIN so the headline report and observability export
// (GP_TELEMETRY / GP_TRACE env vars) run at exit. Our own flags are
// stripped before google-benchmark sees the command line.
int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  const std::string outdir = flags.GetString("outdir", "bench_out");
  const int reps =
      static_cast<int>(flags.GetInt("headline_reps", 15));
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i == 0 || arg.rfind("--benchmark", 0) == 0) {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());

  gp::ConfigureObservability("", "");
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gp::RunHeadline(outdir, reps);
  const gp::Status status = gp::ExportConfiguredObservability();
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
  return 0;
}
