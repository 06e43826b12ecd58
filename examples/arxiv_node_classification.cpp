// Node-classification scenario (the paper's Table III setting): pre-train
// on a large citation graph, then classify papers of a *different* citation
// graph in-context, sweeping the number of classes (ways).
//
//   ./examples/arxiv_node_classification [--steps=300] [--queries=60]

#include <cstdio>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  gp::ConfigureSimdFromFlags(flags);
  const uint64_t seed = flags.GetInt("seed", 7);

  gp::DatasetBundle mag = gp::MakeMagSim(0.7, seed);
  gp::DatasetBundle arxiv = gp::MakeArxivSim(0.7, seed + 1);

  gp::GraphPrompterModel model(
      gp::FullGraphPrompterConfig(mag.graph.feature_dim(), seed));
  gp::PretrainConfig pretrain;
  pretrain.steps = static_cast<int>(flags.GetInt("steps", 300));
  pretrain.ways = 5;
  std::printf("pretraining on %s (%d steps)...\n", mag.name.c_str(),
              pretrain.steps);
  gp::Pretrain(&model, mag, pretrain);

  gp::TablePrinter table({"ways", "accuracy %", "±std", "ms/query"});
  for (int ways : {3, 5, 10, 20, 40}) {
    gp::EvalConfig eval;
    eval.ways = ways;
    eval.shots = 3;
    eval.num_queries = static_cast<int>(flags.GetInt("queries", 60));
    eval.trials = 3;
    eval.seed = seed + ways;
    const auto result = gp::EvaluateInContext(model, arxiv, eval);
    table.AddRow({std::to_string(ways),
                  gp::TablePrinter::Num(result.accuracy_percent.mean),
                  gp::TablePrinter::Num(result.accuracy_percent.std),
                  gp::TablePrinter::Num(result.ms_per_query, 1)});
  }
  std::printf("\nGraphPrompter in-context node classification on %s:\n",
              arxiv.name.c_str());
  table.Print();
  return 0;
}
