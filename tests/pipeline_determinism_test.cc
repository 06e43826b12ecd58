// End-to-end determinism pins for the prompt pipeline (DESIGN.md §13).
//
// In-context evaluation (generate -> select -> augment) and pretraining
// run their stages in sequence; only the ParallelFor width inside each
// stage varies. Every per-trial accuracy, summary stat, kept embedding
// byte and pretraining loss must equal the 1-thread run exactly, at 1, 2,
// 4 and 8 threads, over every GraphView backend (in-memory Graph,
// GraphAdapter view, mmap-backed CsrStore shards). Deadlines yield
// well-formed partial results, and an absent deadline never trips.
//
// ctest labels this binary `concurrency`, so scripts/check.sh runs it under
// TSan.

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "data/stream_synthetic.h"
#include "data/synthetic.h"
#include "data/view_bundle.h"
#include "graph/graph_view.h"
#include "graph/store/csr_store.h"
#include "util/parallel.h"

namespace gp {
namespace {

// Restores the process-wide ParallelFor width after each test.
class PipelineDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_threads_ = NumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

 private:
  int previous_threads_ = 1;
};

// ------------------------------------------------------- fixtures / helpers

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Graph SmallGraph() {
  NodeGraphConfig config;
  config.num_nodes = 150;
  config.num_classes = 5;
  config.feature_dim = 8;
  return MakeNodeClassificationGraph(config);
}

GraphPrompterConfig SmallModelConfig() {
  GraphPrompterConfig config = FullGraphPrompterConfig(8, 3);
  config.embedding_dim = 8;
  config.recon_hidden = 8;
  config.selection_hidden = 8;
  return config;
}

EvalResult RunEval(const DatasetBundle& dataset) {
  GraphPrompterModel model(SmallModelConfig());
  EvalConfig eval;
  eval.ways = 3;
  eval.shots = 2;
  eval.candidates_per_class = 6;
  eval.num_queries = 12;
  eval.trials = 4;
  eval.seed = 77;
  eval.keep_embeddings = true;
  return EvaluateInContext(model, dataset, eval);
}

// Exact double equality on every per-trial accuracy and summary stat, byte
// equality on the kept embeddings.
void ExpectEvalBitwiseEqual(const EvalResult& serial,
                            const EvalResult& parallel,
                            const std::string& label) {
  ASSERT_EQ(serial.trial_accuracy_percent.size(),
            parallel.trial_accuracy_percent.size())
      << label;
  for (size_t t = 0; t < serial.trial_accuracy_percent.size(); ++t) {
    EXPECT_EQ(serial.trial_accuracy_percent[t],
              parallel.trial_accuracy_percent[t])
        << label << " trial " << t;
  }
  EXPECT_EQ(serial.accuracy_percent.mean, parallel.accuracy_percent.mean)
      << label;
  EXPECT_EQ(serial.accuracy_percent.std, parallel.accuracy_percent.std)
      << label;
  EXPECT_EQ(serial.completed_queries, parallel.completed_queries) << label;
  EXPECT_EQ(serial.deadline_expired, parallel.deadline_expired) << label;
  ASSERT_EQ(serial.embeddings.rows(), parallel.embeddings.rows()) << label;
  ASSERT_EQ(serial.embeddings.cols(), parallel.embeddings.cols()) << label;
  EXPECT_EQ(std::memcmp(serial.embeddings.data().data(),
                        parallel.embeddings.data().data(),
                        static_cast<size_t>(serial.embeddings.size()) *
                            sizeof(float)),
            0)
      << label << ": kept embedding bytes diverged";
  EXPECT_EQ(serial.embedding_labels, parallel.embedding_labels) << label;
}

PretrainConfig SmallPretrainConfig() {
  PretrainConfig config;
  config.steps = 6;
  config.ways = 3;
  config.shots = 2;
  config.queries_per_task = 2;
  config.log_every = 2;
  return config;
}

void ExpectCurvesEqual(const PretrainCurves& serial,
                       const PretrainCurves& parallel,
                       const std::string& label) {
  ASSERT_EQ(serial.step, parallel.step) << label;
  ASSERT_EQ(serial.loss.size(), parallel.loss.size()) << label;
  for (size_t i = 0; i < serial.loss.size(); ++i) {
    EXPECT_EQ(serial.loss[i], parallel.loss[i]) << label << " window " << i;
    EXPECT_EQ(serial.train_accuracy[i], parallel.train_accuracy[i])
        << label << " window " << i;
  }
}

// The three GraphView backends the eval pin sweeps: an in-memory bundle,
// a bundle materialized off a GraphAdapter view, and one materialized off
// mmap-backed CsrStore shards.
std::vector<DatasetBundle> EvalBackends() {
  std::vector<DatasetBundle> bundles;
  bundles.push_back(MakeBundleFromGraph(
      "inmem", TaskType::kNodeClassification, SmallGraph(), 0.6, 11));

  const Graph graph = SmallGraph();
  const GraphAdapter adapter(graph);
  ViewBundleConfig view_config;
  view_config.items_per_class = 8;
  auto adapter_bundle = MaterializeViewBundle(adapter, "adapter", view_config);
  CHECK_OK(adapter_bundle.status());
  bundles.push_back(std::move(*adapter_bundle));

  StreamNodeGraphConfig stream_config;
  stream_config.num_nodes = 1500;
  stream_config.num_classes = 5;
  stream_config.feature_dim = 8;
  const std::string dir = FreshDir("pipeline_det_store");
  CHECK_OK(GenerateMagSimShards(stream_config, dir));
  auto store = CsrStore::Open(dir);
  CHECK_OK(store.status());
  auto store_bundle = MaterializeViewBundle(**store, "store", view_config);
  CHECK_OK(store_bundle.status());
  bundles.push_back(std::move(*store_bundle));
  std::filesystem::remove_all(dir);
  return bundles;
}

// --------------------------------------------------- end-to-end eval pins

TEST_F(PipelineDeterminismTest, EvalBitwiseIdenticalAcrossThreadCounts) {
  for (const DatasetBundle& dataset : EvalBackends()) {
    SetNumThreads(1);
    const EvalResult serial = RunEval(dataset);
    ASSERT_FALSE(serial.trial_accuracy_percent.empty()) << dataset.name;
    for (const int threads : {1, 2, 4, 8}) {
      SetNumThreads(threads);
      ExpectEvalBitwiseEqual(
          serial, RunEval(dataset),
          dataset.name + " threads=" + std::to_string(threads));
    }
  }
}

// ----------------------------------------------- end-to-end pretrain pins

TEST_F(PipelineDeterminismTest, PretrainCurvesBitwiseIdenticalInMemory) {
  const DatasetBundle dataset = MakeBundleFromGraph(
      "pretrain_inmem", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  const PretrainConfig config = SmallPretrainConfig();
  SetNumThreads(1);
  GraphPrompterModel serial_model(SmallModelConfig());
  const PretrainCurves serial = Pretrain(&serial_model, dataset, config);
  ASSERT_FALSE(serial.loss.empty());
  for (const int threads : {1, 2, 4, 8}) {
    SetNumThreads(threads);
    GraphPrompterModel model(SmallModelConfig());
    ExpectCurvesEqual(serial, Pretrain(&model, dataset, config),
                      "inmem threads=" + std::to_string(threads));
  }
}

TEST_F(PipelineDeterminismTest, PretrainCurvesBitwiseIdenticalOverViews) {
  const Graph graph = SmallGraph();
  const GraphAdapter adapter(graph);

  StreamNodeGraphConfig stream_config;
  stream_config.num_nodes = 1500;
  stream_config.num_classes = 5;
  stream_config.feature_dim = 8;
  const std::string dir = FreshDir("pipeline_det_pretrain_store");
  ASSERT_TRUE(GenerateMagSimShards(stream_config, dir).ok());
  auto store = CsrStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const PretrainConfig config = SmallPretrainConfig();
  const std::vector<const GraphView*> views = {&adapter, &**store};
  const char* names[] = {"adapter", "csr_store"};
  for (size_t v = 0; v < views.size(); ++v) {
    SetNumThreads(1);
    GraphPrompterModel serial_model(SmallModelConfig());
    const PretrainCurves serial = Pretrain(&serial_model, *views[v], config);
    ASSERT_FALSE(serial.loss.empty()) << names[v];
    for (const int threads : {1, 2, 4, 8}) {
      SetNumThreads(threads);
      GraphPrompterModel model(SmallModelConfig());
      ExpectCurvesEqual(serial, Pretrain(&model, *views[v], config),
                        std::string(names[v]) + " threads=" +
                            std::to_string(threads));
    }
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- deadline at stage boundaries

// An expiring deadline must yield partial results with deadline_expired
// set.
TEST_F(PipelineDeterminismTest, DeadlineMidPipelineYieldsPartialResults) {
  const DatasetBundle dataset = MakeBundleFromGraph(
      "deadline", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  SetNumThreads(2);
  GraphPrompterModel model(SmallModelConfig());
  EvalConfig eval;
  eval.ways = 3;
  eval.shots = 2;
  eval.candidates_per_class = 6;
  eval.num_queries = 12;
  eval.trials = 64;  // far more than a 1ms budget allows
  eval.seed = 77;
  eval.deadline_us = 1000;
  const EvalResult result = EvaluateInContext(model, dataset, eval);
  EXPECT_TRUE(result.deadline_expired) << "64 trials in 1ms should expire";
  EXPECT_LT(result.trial_accuracy_percent.size(), 64u);
  // Partial results stay well-formed: every completed trial carries a
  // finite accuracy, and the summary is computed over exactly those.
  for (const double acc : result.trial_accuracy_percent) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 100.0);
  }
}

// A zero/absent deadline must never trip.
TEST_F(PipelineDeterminismTest, DisabledDeadlineNeverExpires) {
  const DatasetBundle dataset = MakeBundleFromGraph(
      "no_deadline", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  SetNumThreads(2);
  const EvalResult result = RunEval(dataset);
  EXPECT_FALSE(result.deadline_expired);
  EXPECT_EQ(result.trial_accuracy_percent.size(), 4u);
}

}  // namespace
}  // namespace gp
