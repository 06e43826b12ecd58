// Shared scaffolding for the benchmark harnesses (one binary per paper
// table/figure). Every bench accepts:
//   --scale=F     dataset scale multiplier        (default 0.45)
//   --steps=N     pretraining steps               (default 250)
//   --trials=N    episodes averaged per cell      (default 3)
//   --queries=N   test queries per episode        (default 50; paper 500)
//   --seed=N      master seed                     (default 1)
//   --threads=N   worker threads for parallel kernels
//                 (default GP_NUM_THREADS env, else hardware concurrency;
//                 results are bitwise identical at any thread count)
//   --outdir=DIR  CSV output directory            (default "results")
//   --telemetry=PATH  write a telemetry snapshot (JSON, or CSV by
//                 extension) at exit; GP_TELEMETRY env is the fallback
//   --trace=PATH  record trace spans and write Chrome trace JSON (or CSV
//                 by extension) at exit; GP_TRACE env is the fallback
//   --simd=LEVEL  distance/GEMM kernels: auto | avx2 | off (default auto;
//                 GP_SIMD env is the fallback — see DESIGN.md §10)
// Results are printed as paper-style tables and written as CSV. Every
// binary additionally writes <outdir>/BENCH_<name>.json (schema in
// obs/bench_report.h): config, per-stage span timings, telemetry
// counters, and its headline accuracy metrics.

#ifndef GRAPHPROMPTER_BENCH_BENCH_COMMON_H_
#define GRAPHPROMPTER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "baselines/prodigy.h"
#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "obs/bench_report.h"
#include "obs/export.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace gp {
namespace bench {

struct Env {
  double scale = 0.45;
  int pretrain_steps = 250;
  int trials = 3;
  int queries = 50;
  uint64_t seed = 1;
  int threads = 0;  // resolved to the actual pool size by ParseEnv
  std::string outdir = "results";
  std::string telemetry_path;  // empty = GP_TELEMETRY env, else disabled
  std::string trace_path;      // empty = GP_TRACE env, else disabled
  SimdLevel simd = SimdLevel::kScalar;  // resolved --simd/GP_SIMD level
};

inline Env ParseEnv(int argc, char** argv) {
  Flags flags(argc, argv);
  Env env;
  env.scale = flags.GetDouble("scale", env.scale);
  env.pretrain_steps =
      static_cast<int>(flags.GetInt("steps", env.pretrain_steps));
  env.trials = static_cast<int>(flags.GetInt("trials", env.trials));
  env.queries = static_cast<int>(flags.GetInt("queries", env.queries));
  env.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(env.seed)));
  const int threads = static_cast<int>(flags.GetInt("threads", 0));
  if (threads > 0) SetNumThreads(threads);
  env.threads = NumThreads();
  env.outdir = flags.GetString("outdir", env.outdir);
  std::filesystem::create_directories(env.outdir);
  env.telemetry_path = flags.GetString("telemetry", env.telemetry_path);
  env.trace_path = flags.GetString("trace", env.trace_path);
  env.simd = ConfigureSimdFromFlags(flags);
  ConfigureObservability(env.telemetry_path, env.trace_path);
  return env;
}

// Standard main() body for a bench binary: parses flags, runs `run` with a
// reporter, then writes <outdir>/BENCH_<name>.json plus any configured
// telemetry/trace exports. Keeps every binary's export path identical.
inline int BenchMain(const std::string& name, int argc, char** argv,
                     void (*run)(const Env&, BenchReporter*)) {
  const Env env = ParseEnv(argc, argv);
  BenchReporter report(name);
  report.AddConfig("scale", env.scale);
  report.AddConfig("pretrain_steps", static_cast<int64_t>(env.pretrain_steps));
  report.AddConfig("trials", static_cast<int64_t>(env.trials));
  report.AddConfig("queries", static_cast<int64_t>(env.queries));
  report.AddConfig("seed", static_cast<int64_t>(env.seed));
  report.AddConfig("threads", static_cast<int64_t>(env.threads));
  report.AddConfig("simd", std::string(SimdLevelName(env.simd)));
  run(env, &report);
  const Status status = report.WriteJson(env.outdir);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
  const Status obs_status = ExportConfiguredObservability();
  if (!obs_status.ok()) {
    std::fprintf(stderr, "warning: %s\n", obs_status.ToString().c_str());
  }
  return 0;
}

inline PretrainConfig DefaultPretrain(const Env& env) {
  PretrainConfig config;
  config.steps = env.pretrain_steps;
  config.ways = 5;
  config.shots = 3;
  config.queries_per_task = 4;
  config.seed = env.seed + 1000;
  return config;
}

// Builds and pre-trains a model with the given config on `dataset`.
inline std::unique_ptr<GraphPrompterModel> MakePretrained(
    const GraphPrompterConfig& config, const DatasetBundle& dataset,
    const Env& env) {
  auto model = std::make_unique<GraphPrompterModel>(config);
  Stopwatch timer;
  Pretrain(model.get(), dataset, DefaultPretrain(env));
  std::printf("  [pretrained %s-config model on %s in %.1fs]\n",
              config.random_prompt_selection ? "prodigy" : "graphprompter",
              dataset.name.c_str(), timer.ElapsedSeconds());
  return model;
}

inline EvalConfig DefaultEval(const Env& env, int ways, int shots = 3) {
  EvalConfig eval;
  eval.ways = ways;
  eval.shots = shots;
  eval.candidates_per_class = 10;  // N = 10 (Sec. V-A2)
  eval.num_queries = env.queries;
  eval.trials = env.trials;
  eval.seed = env.seed + 77 * ways + shots;
  return eval;
}

inline std::string Cell(const MeanStd& ms) {
  return TablePrinter::MeanStd(ms.mean, ms.std);
}

inline void WriteCsvOrWarn(const TablePrinter& table,
                           const std::string& path) {
  const Status status = table.WriteCsv(path);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

inline void WriteCsvOrWarn(const SeriesWriter& series,
                           const std::string& path) {
  const Status status = series.WriteCsv(path);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

}  // namespace bench
}  // namespace gp

#endif  // GRAPHPROMPTER_BENCH_BENCH_COMMON_H_
