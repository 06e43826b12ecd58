// Golden regression tests for the retrieval/scoring pipeline.
//
// Pins (a) the quickstart-style in-context trial accuracies, (b) the
// same run's variants — Prodigy, clustering selector, augmenter disabled,
// 3-query task-graph steps, kept-embedding bytes — (c) the prompt
// selector's top-k selections, vote totals, and hit counts, (d) a short
// pretraining run's per-step losses and final parameter bytes, and (e)
// the random-walk sampler's data graphs for node and edge items, for
// fixed seeds into tests/golden/. Values are rendered with %.17g, so any change
// to retrieval or scoring that shifts predictions by even one ULP fails
// loudly. The selector goldens pin the exact scan that scores every
// (candidate, query) pair, the many-way one at eval_manyway's shape; the
// eval variants were generated from the per-trial serial evaluation loop
// that predated the single batched path, and packed multi-request batches
// must keep matching them bitwise.
//
// Regenerate (after an *intentional* numeric change, reviewed in the PR):
//   scripts/update_golden.sh

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/prodigy.h"
#include "core/batch_eval.h"
#include "core/graph_prompter.h"
#include "core/knn_retrieval.h"
#include "core/pretrain.h"
#include "core/prompt_generator.h"
#include "data/datasets.h"
#include "graph/sampler.h"
#include "util/checksum.h"
#include "util/parallel.h"
#include "util/rng.h"

#ifndef GP_GOLDEN_DIR
#error "GP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace gp {
namespace {

std::string Fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---- renderers: each produces the exact text pinned in tests/golden/.

// Quickstart-shaped evaluation: deterministically initialised model (no
// pretraining, so the test stays fast), synthetic downstream graph, three
// trials.
DatasetBundle GoldenDownstream() { return MakeArxivSim(0.4, 21); }

EvalConfig QuickstartEval() {
  EvalConfig eval;
  eval.ways = 5;
  eval.shots = 3;
  eval.candidates_per_class = 10;
  eval.num_queries = 40;
  eval.trials = 3;
  eval.seed = 99;
  return eval;
}

// Pins per-trial accuracy plus the mean/std and, when the run kept its
// final trial's embeddings, their shape, a CRC-32 of their bytes and the
// episode labels.
std::string RenderEvalResult(const DatasetBundle& downstream,
                             const EvalResult& result) {
  std::ostringstream out;
  out << "dataset " << downstream.name << "\n";
  for (size_t t = 0; t < result.trial_accuracy_percent.size(); ++t) {
    out << "trial " << t << " accuracy_percent "
        << Fmt(result.trial_accuracy_percent[t]) << "\n";
  }
  out << "mean " << Fmt(result.accuracy_percent.mean) << "\n";
  out << "std " << Fmt(result.accuracy_percent.std) << "\n";
  if (result.embeddings.defined()) {
    out << "embeddings " << result.embeddings.rows() << "x"
        << result.embeddings.cols() << " crc32 "
        << Crc32(result.embeddings.data().data(),
                 static_cast<size_t>(result.embeddings.size()) *
                     sizeof(float))
        << "\n";
    out << "embedding_labels";
    for (int label : result.embedding_labels) out << " " << label;
    out << "\n";
  }
  return out.str();
}

std::string RenderEvalGolden() {
  DatasetBundle downstream = GoldenDownstream();
  GraphPrompterModel model(
      FullGraphPrompterConfig(downstream.graph.feature_dim(), 7));
  return RenderEvalResult(
      downstream, EvaluateInContext(model, downstream, QuickstartEval()));
}

// Variants of the quickstart evaluation, one golden file each, covering
// the stage-3 and selector branches the quickstart run does not take.
// Request-side variants run on the quickstart model; model-side variants
// run the quickstart request.
struct RequestVariant {
  std::string golden;
  EvalConfig eval;
};

std::vector<RequestVariant> RequestVariants() {
  const EvalConfig eval = QuickstartEval();
  EvalConfig no_augmenter = eval;
  no_augmenter.disable_augmenter = true;
  EvalConfig batch3 = eval;
  batch3.query_batch = 3;
  EvalConfig keep = eval;
  keep.keep_embeddings = true;
  return {{"disable_augmenter_eval.golden", no_augmenter},
          {"query_batch3_eval.golden", batch3},
          {"keep_embeddings_eval.golden", keep}};
}

struct ModelVariant {
  std::string golden;
  GraphPrompterConfig model;
};

std::vector<ModelVariant> ModelVariants(int feature_dim) {
  GraphPrompterConfig clustering = FullGraphPrompterConfig(feature_dim, 7);
  clustering.selector = SelectorKind::kClustering;
  // Prodigy: random prompts, augmenter off.
  return {{"prodigy_eval.golden", ProdigyConfig(feature_dim, 7)},
          {"clustering_eval.golden", clustering}};
}

// Raw selector outputs on fixed random embeddings, one block per distance
// metric: selected candidate ids, per-candidate vote totals, hit counts.
// Candidate p belongs to class p % classes.
std::string RenderSelectionGolden(int num_prompts, int num_queries, int dim,
                                  int classes) {
  Rng rng(123);
  Tensor prompts = Tensor::Randn(num_prompts, dim, &rng);
  Tensor prompt_importance = Tensor::Randn(num_prompts, 1, &rng);
  Tensor queries = Tensor::Randn(num_queries, dim, &rng);
  Tensor query_importance = Tensor::Randn(num_queries, 1, &rng);
  std::vector<int> labels(num_prompts);
  for (int p = 0; p < num_prompts; ++p) labels[p] = p % classes;

  std::ostringstream out;
  for (DistanceMetric metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean,
        DistanceMetric::kManhattan}) {
    KnnConfig config;
    config.shots = 3;
    config.metric = metric;
    const KnnSelection sel =
        SelectPrompts(prompts, prompt_importance, labels, queries,
                      query_importance, classes, config);
    out << "metric " << DistanceMetricName(metric) << "\n";
    out << "selected";
    for (int p : sel.selected) out << " " << p;
    out << "\n";
    for (int p = 0; p < num_prompts; ++p) {
      if (sel.hit_counts[p] == 0) continue;
      out << "candidate " << p << " votes " << Fmt(sel.votes[p]) << " hits "
          << sel.hit_counts[p] << "\n";
    }
  }
  return out.str();
}

// Ten pretraining steps of a small model (the pretrain_test size): every
// step's loss and train accuracy, then a CRC-32 of each named parameter's
// bytes. This is the only golden that runs autograd backward and AdamW,
// so it pins every gradient kernel the pretraining graph reaches.
std::string RenderPretrainGolden() {
  const DatasetBundle ds = MakeMagSim(0.08, 3);
  GraphPrompterConfig config;
  config.feature_dim = ds.graph.feature_dim();
  config.embedding_dim = 16;
  config.recon_hidden = 16;
  config.selection_hidden = 16;
  config.sampler.max_nodes = 10;
  config.seed = 1;
  GraphPrompterModel model(config);
  PretrainConfig pretrain;
  pretrain.steps = 10;
  pretrain.ways = 3;
  pretrain.shots = 2;
  pretrain.queries_per_task = 3;
  pretrain.log_every = 1;
  const PretrainCurves curves = Pretrain(&model, ds, pretrain);

  std::ostringstream out;
  for (size_t i = 0; i < curves.step.size(); ++i) {
    out << "step " << curves.step[i] << " loss " << Fmt(curves.loss[i])
        << " train_accuracy " << Fmt(curves.train_accuracy[i]) << "\n";
  }
  for (const auto& [name, param] : model.NamedParameters()) {
    out << "param " << name << " " << param.rows() << "x" << param.cols()
        << " crc32 "
        << Crc32(param.data().data(),
                 static_cast<size_t>(param.size()) * sizeof(float))
        << "\n";
  }
  return out.str();
}

// Data graphs (Eq. 1) sampled by SampleForItem for node items of a MagSim
// graph and edge items of an FB15K-sim graph, then one multi-center call
// with a duplicated center. Every call draws from one RNG stream, so the
// golden also pins how many draws each sample consumes.
void RenderSubgraph(const Subgraph& sg, std::ostringstream* out) {
  auto line = [out](const char* name, const std::vector<int>& values) {
    *out << name;
    for (int v : values) *out << " " << v;
    *out << "\n";
  };
  line("nodes", sg.nodes);
  line("center_local", sg.center_local);
  line("edge_src", sg.edge_src);
  line("edge_dst", sg.edge_dst);
  line("edge_rel", sg.edge_rel);
  line("edge_ids", sg.edge_ids);
}

std::string RenderSamplerGolden() {
  SamplerConfig walk;
  walk.num_hops = 2;
  walk.max_nodes = 16;
  walk.num_walks = 2;
  const DatasetBundle mag = MakeMagSim(0.08, 3);
  const DatasetBundle fb = MakeFb15kSim(0.1, 5);
  Rng rng(41);
  std::ostringstream out;
  for (const DatasetBundle* ds : {&mag, &fb}) {
    PromptGeneratorConfig config;
    config.gnn.in_dim = ds->graph.feature_dim();
    config.sampler = walk;
    Rng init_rng(1);
    const PromptGenerator generator(config, &init_rng);
    out << "dataset " << ds->name << "\n";
    for (size_t c = 0; c < ds->train_items_by_class.size() && c < 6; ++c) {
      const std::vector<int>& items = ds->train_items_by_class[c];
      for (size_t i = 0; i < items.size() && i < 2; ++i) {
        out << "item " << items[i] << "\n";
        RenderSubgraph(generator.SampleForItem(*ds, items[i], &rng), &out);
      }
    }
  }
  const GraphAdapter mag_view(mag.graph);
  const Sampler sampler(&mag_view, walk);
  out << "centers 5 9 5 120\n";
  RenderSubgraph(sampler.SampleAroundNodes({5, 9, 5, 120}, &rng), &out);
  return out.str();
}

// ---- harness: compare against (or regenerate) tests/golden/<name>.

bool UpdateRequested() {
  const char* env = std::getenv("GP_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

void CheckGolden(const std::string& name, const std::string& rendered) {
  const std::string path = std::string(GP_GOLDEN_DIR) + "/" + name;
  if (UpdateRequested()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run scripts/update_golden.sh to generate it";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), rendered)
      << "pipeline output diverged from " << path
      << ". If the change is intentional, regenerate with "
         "scripts/update_golden.sh and review the diff.";
}

TEST(GoldenEvalTest, QuickstartTrialAccuracies) {
  CheckGolden("quickstart_eval.golden", RenderEvalGolden());
}

TEST(GoldenEvalTest, SelectorTopKPerMetric) {
  CheckGolden("selector_topk.golden", RenderSelectionGolden(48, 20, 12, 4));
}

// eval_manyway's selector shape: 40 ways x 10 candidates per class against
// 100 queries at d = 64.
TEST(GoldenEvalTest, SelectorTopKManyWay) {
  CheckGolden("selector_topk_manyway.golden",
              RenderSelectionGolden(400, 100, 64, 40));
}

TEST(GoldenEvalTest, PretrainLossesAndParametersMatchGolden) {
  CheckGolden("pretrain.golden", RenderPretrainGolden());
}

TEST(GoldenEvalTest, SamplerOutputsMatchGolden) {
  CheckGolden("sampler.golden", RenderSamplerGolden());
}

TEST(GoldenEvalTest, EvalVariantsMatchGolden) {
  const DatasetBundle downstream = GoldenDownstream();
  const int feature_dim = downstream.graph.feature_dim();
  GraphPrompterModel full(FullGraphPrompterConfig(feature_dim, 7));
  for (const RequestVariant& v : RequestVariants()) {
    SCOPED_TRACE(v.golden);
    CheckGolden(v.golden,
                RenderEvalResult(downstream,
                                 EvaluateInContext(full, downstream, v.eval)));
  }
  for (const ModelVariant& v : ModelVariants(feature_dim)) {
    SCOPED_TRACE(v.golden);
    GraphPrompterModel model(v.model);
    CheckGolden(v.golden, RenderEvalResult(downstream,
                                           EvaluateInContext(
                                               model, downstream,
                                               QuickstartEval())));
  }
}

// The quickstart request and its request-side variants, packed as one
// multi-request batch, must each reproduce their standalone golden:
// packing across requests cannot change any request's result.
TEST(GoldenEvalTest, PackedBatchMatchesGoldens) {
  if (UpdateRequested()) GTEST_SKIP() << "goldens come from standalone runs";
  const DatasetBundle downstream = GoldenDownstream();
  std::vector<std::string> goldens = {"quickstart_eval.golden"};
  std::vector<EvalConfig> configs = {QuickstartEval()};
  for (const RequestVariant& v : RequestVariants()) {
    goldens.push_back(v.golden);
    configs.push_back(v.eval);
  }
  GraphPrompterModel model(
      FullGraphPrompterConfig(downstream.graph.feature_dim(), 7));
  const std::vector<EvalResult> results =
      EvaluateInContextBatch(model, downstream, configs);
  ASSERT_EQ(results.size(), configs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(goldens[i]);
    CheckGolden(goldens[i], RenderEvalResult(downstream, results[i]));
  }
}

// The quickstart golden must hold at any ParallelFor width.
TEST(GoldenEvalTest, QuickstartGoldenHoldsAtEveryWidth) {
  const int saved_threads = NumThreads();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    CheckGolden("quickstart_eval.golden", RenderEvalGolden());
  }
  SetNumThreads(saved_threads);
}

}  // namespace
}  // namespace gp
