// Quickstart: build a small graph, pre-train GraphPrompter on it, and make
// in-context predictions on a second graph with different classes — all in
// ~60 lines of user code.
//
//   ./examples/quickstart [--steps=200] [--seed=1]
//                         [--telemetry=telemetry.json] [--trace=trace.json]

#include <cstdio>

#include "baselines/prodigy.h"
#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "obs/export.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/pipeline.h"

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  gp::ConfigureSimdFromFlags(flags);
  gp::ConfigurePipelineFromFlags(flags);
  const uint64_t seed = flags.GetInt("seed", 1);
  gp::ConfigureObservability(flags.GetString("telemetry", ""),
                             flags.GetString("trace", ""));

  // 1. Datasets. MakeMagSim / MakeArxivSim generate citation-style graphs
  //    sharing a semantic feature space but with disjoint label sets; any
  //    gp::Graph + gp::MakeBundleFromGraph works the same way.
  gp::DatasetBundle pretrain_ds = gp::MakeMagSim(0.5, seed);
  gp::DatasetBundle downstream = gp::MakeArxivSim(0.5, seed + 1);
  std::printf("pretraining graph: %s\n",
              pretrain_ds.graph.DebugString().c_str());
  std::printf("downstream graph:  %s\n\n",
              downstream.graph.DebugString().c_str());

  // 2. Model: the full GraphPrompter (Prompt Generator + Selector +
  //    Augmenter over a GraphSAGE encoder and attention task graph).
  gp::GraphPrompterConfig config = gp::FullGraphPrompterConfig(
      pretrain_ds.graph.feature_dim(), seed + 2);
  gp::GraphPrompterModel model(config);
  std::printf("model parameters: %lld\n",
              static_cast<long long>(model.NumParameters()));

  // 3. Pre-train once with the Neighbor-Matching + Multi-Task objectives.
  gp::PretrainConfig pretrain;
  pretrain.steps = static_cast<int>(flags.GetInt("steps", 200));
  pretrain.ways = 5;
  pretrain.verbose = true;
  const auto curves = gp::Pretrain(&model, pretrain_ds, pretrain);
  std::printf("final pretraining loss: %.3f (train acc %.1f%%)\n\n",
              curves.loss.back(), curves.train_accuracy.back());

  // 4. In-context evaluation on the new graph: no gradient updates, just
  //    3 prompt examples per class.
  gp::EvalConfig eval;
  eval.ways = 5;
  eval.shots = 3;
  eval.num_queries = 60;
  eval.trials = 3;
  eval.seed = seed + 3;
  const auto ours = gp::EvaluateInContext(model, downstream, eval);

  // Compare with the Prodigy baseline (random prompt selection).
  gp::GraphPrompterConfig prodigy_config =
      gp::ProdigyConfig(pretrain_ds.graph.feature_dim(), seed + 2);
  gp::GraphPrompterModel prodigy(prodigy_config);
  gp::Pretrain(&prodigy, pretrain_ds, pretrain);
  const auto baseline = gp::EvaluateInContext(prodigy, downstream, eval);

  std::printf("5-way 3-shot in-context accuracy on %s:\n",
              downstream.name.c_str());
  std::printf("  Prodigy (random prompts):  %.2f%% ±%.2f\n",
              baseline.accuracy_percent.mean, baseline.accuracy_percent.std);
  std::printf("  GraphPrompter (ours):      %.2f%% ±%.2f\n",
              ours.accuracy_percent.mean, ours.accuracy_percent.std);

  // 5. End-of-run telemetry: stage timings and pipeline counters collected
  //    by the observability registry while the steps above ran.
  std::printf("\n%s", gp::TelemetrySummary(gp::Telemetry().Snapshot()).c_str());
  CHECK_OK(gp::ExportConfiguredObservability());
  return 0;
}
