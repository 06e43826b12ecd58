// Online test-time adaptation with the Prompt Augmenter (Sec. IV-C): shows
// how the LFU cache of pseudo-labelled queries lifts accuracy when the
// downstream task has many more classes than pre-training episodes, and
// how cache size trades off (Fig. 5's shape).
//
// Also demonstrates the fault-tolerance surface: inputs and config are
// validated at the pipeline boundary, and --fault=<spec> (or GP_FAULT)
// injects deterministic faults whose recoveries are reported as
// degradation counters.
//
//   ./examples/online_adaptation [--steps=300] [--ways=20]
//                                [--fault=embed_nan=0.2,seed=7]
//                                [--telemetry=telemetry.json]
//                                [--trace=trace.json]

#include <cstdio>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "util/fault.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/pipeline.h"
#include "util/table.h"

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  gp::ConfigureSimdFromFlags(flags);
  gp::ConfigurePipelineFromFlags(flags);
  const uint64_t seed = flags.GetInt("seed", 23);
  const int ways = static_cast<int>(flags.GetInt("ways", 20));
  CHECK_OK(gp::ConfigureGlobalFaultInjection(flags.GetString("fault", "")));
  gp::ConfigureObservability(flags.GetString("telemetry", ""),
                             flags.GetString("trace", ""));

  gp::DatasetBundle wiki = gp::MakeWikiSim(0.6, seed);
  gp::DatasetBundle nell = gp::MakeNellSim(0.6, seed + 1);
  // Boundary validation: a malformed graph fails here with a typed error
  // instead of crashing mid-episode.
  CHECK_OK(wiki.graph.Validate());
  CHECK_OK(nell.graph.Validate());

  // Pre-train once; reuse the weights across augmenter settings (the
  // augmenter is a pure inference-time mechanism).
  gp::GraphPrompterConfig base =
      gp::FullGraphPrompterConfig(wiki.graph.feature_dim(), seed);
  CHECK_OK(gp::Validate(base));
  gp::GraphPrompterModel model(base);
  gp::PretrainConfig pretrain;
  pretrain.steps = static_cast<int>(flags.GetInt("steps", 300));
  pretrain.ways = 5;
  std::printf("pretraining on %s (5-way episodes, %d steps)...\n",
              wiki.name.c_str(), pretrain.steps);
  gp::Pretrain(&model, wiki, pretrain);
  const std::string ckpt = "/tmp/graphprompter_online_demo.ckpt";
  CHECK_OK(gp::SaveModule(model, ckpt));

  gp::EvalConfig eval;
  eval.ways = ways;
  eval.shots = 3;
  eval.num_queries = 80;
  eval.trials = 3;
  eval.seed = seed + 5;

  gp::TablePrinter table({"cache size c", "accuracy %", "±std"});
  gp::DegradationStats degradation;
  for (int cache : {0, 1, 3, 5, 10}) {
    gp::GraphPrompterConfig config = base;
    config.use_augmenter = cache > 0;
    config.augmenter.cache_capacity = cache;
    CHECK_OK(gp::Validate(config));
    gp::GraphPrompterModel variant(config);
    CHECK_OK(gp::LoadModule(&variant, ckpt));  // same pretrained weights
    const auto result = gp::EvaluateInContext(variant, nell, eval);
    degradation.Merge(result.degradation);
    table.AddRow({cache == 0 ? "off" : std::to_string(cache),
                  gp::TablePrinter::Num(result.accuracy_percent.mean),
                  gp::TablePrinter::Num(result.accuracy_percent.std)});
  }
  std::printf("\n%d-way online adaptation on %s (pretrained 5-way):\n", ways,
              nell.name.c_str());
  table.Print();
  std::printf(
      "\nThe cache inserts confident pseudo-labelled test queries as extra\n"
      "prompts (LFU replacement); a small cache helps, an oversized one\n"
      "admits noisy pseudo-labels (paper Fig. 5 peaks at c=3).\n");
  std::printf("\ndegradation events across all runs:\n%s",
              degradation.ToString().c_str());

  // End-of-run telemetry summary: per-stage span timings, cache hit rate,
  // fault-injector activations, registry-backed degradation counters.
  std::printf("\n%s", gp::TelemetrySummary(gp::Telemetry().Snapshot()).c_str());
  CHECK_OK(gp::ExportConfiguredObservability());
  return 0;
}
