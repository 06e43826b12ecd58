// Pipelined-executor benchmark: serial vs pipelined wall time for
// episodic pretraining, plus the bitwise-equality proof the speedup is
// only allowed to ride on.
//
// The harness runs Pretrain with the pipeline off (deferred-inline, the
// serial schedule) and on (episode construction for step i+1 on a
// background worker, overlapped with the optimizer step for step i) on
// fresh same-seed models, and records:
//
//   pipeline/pretrain/serial_seconds     serial pretrain wall time
//   pipeline/pretrain/pipelined_seconds  pipelined pretrain wall time
//   pipeline/pretrain/speedup            serial / pipelined
//   pipeline/pretrain/bitwise_match      1 iff the loss and accuracy
//                                        curves are identical
//   pipeline/hardware_concurrency        what the machine can overlap
//
// tools/check_pipeline gates on this report: the bitwise metric must be
// 1, and on multi-core hardware the speedup must clear its floor. Run
// with --trace=trace.json to see the overlap directly: "pretrain/prepare"
// spans land on the worker tid while "pretrain/step" spans run on the
// main tid.

#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "data/datasets.h"
#include "util/pipeline.h"

namespace gp {
namespace bench {
namespace {

bool SameCurves(const PretrainCurves& a, const PretrainCurves& b) {
  return a.step == b.step && a.loss == b.loss &&
         a.train_accuracy == b.train_accuracy;
}

void Run(const Env& env, BenchReporter* report) {
  DatasetBundle downstream = MakeArxivSim(env.scale, env.seed + 21);
  GraphPrompterConfig config =
      FullGraphPrompterConfig(downstream.graph.feature_dim(), env.seed + 7);

  // Fresh same-seed models, curve equality.
  const PipelineMode entry_mode = GetPipelineMode();
  PretrainConfig pretrain = DefaultPretrain(env);
  SetPipelineMode(PipelineMode::kOff);
  GraphPrompterModel serial_model(config);
  Stopwatch pretrain_serial_timer;
  const PretrainCurves curves_serial =
      Pretrain(&serial_model, downstream, pretrain);
  const double pretrain_serial_s = pretrain_serial_timer.ElapsedSeconds();

  SetPipelineMode(PipelineMode::kOn);
  GraphPrompterModel piped_model(config);
  Stopwatch pretrain_piped_timer;
  const PretrainCurves curves_piped =
      Pretrain(&piped_model, downstream, pretrain);
  const double pretrain_piped_s = pretrain_piped_timer.ElapsedSeconds();
  const bool pretrain_match = SameCurves(curves_serial, curves_piped);
  SetPipelineMode(entry_mode);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("pretrain: serial %.3fs  pipelined %.3fs  speedup %.2fx  %s\n",
              pretrain_serial_s, pretrain_piped_s,
              pretrain_serial_s / pretrain_piped_s,
              pretrain_match ? "bitwise-identical" : "MISMATCH");
  std::printf("hardware concurrency: %u\n", hw);

  report->AddMetric("pipeline/pretrain/serial_seconds", pretrain_serial_s,
                    "s");
  report->AddMetric("pipeline/pretrain/pipelined_seconds", pretrain_piped_s,
                    "s");
  report->AddMetric("pipeline/pretrain/speedup",
                    pretrain_serial_s / pretrain_piped_s, "x");
  report->AddMetric("pipeline/pretrain/bitwise_match",
                    pretrain_match ? 1.0 : 0.0);
  report->AddMetric("pipeline/hardware_concurrency", static_cast<double>(hw));
}

}  // namespace
}  // namespace bench
}  // namespace gp

int main(int argc, char** argv) {
  return gp::bench::BenchMain("pipeline", argc, argv, gp::bench::Run);
}
