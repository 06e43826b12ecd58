// Knowledge-graph relation classification (the paper's Table IV setting):
// pre-train on a Wiki-style KG, then predict relation types of unseen KGs
// in-context. Also demonstrates swapping the retrieval distance metric.
//
//   ./examples/kg_link_classification [--steps=300]

#include <cstdio>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  gp::ConfigureSimdFromFlags(flags);
  const uint64_t seed = flags.GetInt("seed", 17);

  gp::DatasetBundle wiki = gp::MakeWikiSim(0.6, seed);
  gp::GraphPrompterModel model(
      gp::FullGraphPrompterConfig(wiki.graph.feature_dim(), seed));
  gp::PretrainConfig pretrain;
  pretrain.steps = static_cast<int>(flags.GetInt("steps", 300));
  pretrain.ways = 5;
  std::printf("pretraining on %s (%d steps)...\n", wiki.name.c_str(),
              pretrain.steps);
  gp::Pretrain(&model, wiki, pretrain);

  // Evaluate across the three downstream KGs of the paper.
  gp::TablePrinter table({"dataset", "ways", "accuracy %", "±std"});
  const std::vector<gp::DatasetBundle> downstream = {
      gp::MakeConceptNetSim(0.6, seed + 1),
      gp::MakeFb15kSim(0.6, seed + 2),
      gp::MakeNellSim(0.6, seed + 3),
  };
  for (const auto& ds : downstream) {
    for (int ways : {5, 10}) {
      if (ways > ds.num_classes) continue;
      gp::EvalConfig eval;
      eval.ways = ways;
      eval.shots = 3;
      eval.num_queries = 60;
      eval.trials = 3;
      eval.seed = seed + ways;
      const auto result = gp::EvaluateInContext(model, ds, eval);
      table.AddRow({ds.name, std::to_string(ways),
                    gp::TablePrinter::Num(result.accuracy_percent.mean),
                    gp::TablePrinter::Num(result.accuracy_percent.std)});
    }
  }
  std::printf("\nGraphPrompter in-context relation classification:\n");
  table.Print();

  // The retrieval metric is pluggable (Sec. IV-B2).
  std::printf("\ndistance-metric sweep on %s (5-way):\n",
              downstream[1].name.c_str());
  for (gp::DistanceMetric metric :
       {gp::DistanceMetric::kCosine, gp::DistanceMetric::kEuclidean,
        gp::DistanceMetric::kManhattan}) {
    gp::GraphPrompterConfig config =
        gp::FullGraphPrompterConfig(wiki.graph.feature_dim(), seed);
    config.metric = metric;
    gp::GraphPrompterModel variant(config);
    gp::Pretrain(&variant, wiki, pretrain);
    gp::EvalConfig eval;
    eval.ways = 5;
    eval.num_queries = 40;
    eval.trials = 2;
    const auto result = gp::EvaluateInContext(variant, downstream[1], eval);
    std::printf("  %-10s %.2f%%\n", gp::DistanceMetricName(metric),
                result.accuracy_percent.mean);
  }
  return 0;
}
