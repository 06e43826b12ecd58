// Determinism pins for the pipelined stage executor (DESIGN.md §13).
//
// The contract under test: pipelining grants *scheduling* freedom only.
// With GP_PIPELINE on, pretraining episode construction overlaps the
// optimizer step on a background worker — yet every loss value must
// equal the serial run exactly, at any ParallelFor width, over every
// GraphView backend (in-memory Graph, GraphAdapter view, mmap-backed
// CsrStore shards). In-context evaluation has no pipelined schedule; its
// pins check that neither the pipeline mode nor the ParallelFor width
// changes any prediction, accuracy, or kept embedding byte.
//
// The executor's own scheduling semantics (deferred-inline replay,
// dependency edges, bounded admission, cancellation, exception transport)
// are pinned first; the end-to-end bitwise pins build on them.

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
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
#include "util/pipeline.h"

namespace gp {
namespace {

// Restores the process-wide pipeline mode and ParallelFor width on scope
// exit, so each test leaves the globals as it found them.
class PipelineEnvGuard {
 public:
  PipelineEnvGuard() : mode_(GetPipelineMode()), threads_(NumThreads()) {}
  ~PipelineEnvGuard() {
    SetPipelineMode(mode_);
    SetNumThreads(threads_);
  }

 private:
  PipelineMode mode_;
  int threads_;
};

// ---------------------------------------------------------------- executor

TEST(PipelineExecutorTest, DeferredInlineRunsNothingUntilWait) {
  PipelineExecutor::Options options;
  options.workers = 0;
  PipelineExecutor exec(options);
  std::vector<int> order;
  const auto a = exec.Submit([&] { order.push_back(0); });
  const auto b = exec.Submit([&] { order.push_back(1); });
  const auto c = exec.Submit([&] { order.push_back(2); });
  EXPECT_TRUE(order.empty()) << "deferred-inline must not run at Submit";
  // Waiting on the *last* task replays everything before it, in
  // submission order — the serial schedule.
  EXPECT_TRUE(exec.Wait(c));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(exec.Wait(a));  // already done; no re-run
  EXPECT_TRUE(exec.Wait(b));
  EXPECT_EQ(order.size(), 3u);
}

TEST(PipelineExecutorTest, DependenciesOrderExecutionAcrossWorkers) {
  PipelineExecutor::Options options;
  options.workers = 2;
  options.max_in_flight = 8;
  PipelineExecutor exec(options);
  std::atomic<int> stage{0};
  // b depends on a: even if a sleeps and b's worker is idle, b must
  // observe a's side effect.
  const auto a = exec.Submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stage.store(1);
  });
  const auto b = exec.Submit(
      [&] {
        EXPECT_EQ(stage.load(), 1);
        stage.store(2);
      },
      {a});
  EXPECT_TRUE(exec.Wait(b));
  EXPECT_EQ(stage.load(), 2);
}

TEST(PipelineExecutorTest, BoundedAdmissionThrottlesTheProducer) {
  PipelineExecutor::Options options;
  options.workers = 1;
  options.max_in_flight = 2;
  PipelineExecutor exec(options);
  for (int i = 0; i < 6; ++i) {
    exec.Submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    // At most max_in_flight tasks may be unfinished once Submit returns,
    // so after the i-th submission at least i+1-2 have completed.
    EXPECT_GE(exec.tasks_completed(), i - 1);
  }
  exec.WaitAll();
  EXPECT_EQ(exec.tasks_completed(), 6);
}

TEST(PipelineExecutorTest, CancelPendingSkipsUnstartedWorkAndPropagates) {
  PipelineExecutor::Options options;
  options.workers = 0;
  PipelineExecutor exec(options);
  int ran = 0;
  const auto a = exec.Submit([&] { ++ran; });
  const auto b = exec.Submit([&] { ++ran; });
  const auto c = exec.Submit([&] { ++ran; }, {b});
  EXPECT_TRUE(exec.Wait(a));
  exec.CancelPending();
  EXPECT_FALSE(exec.Wait(b)) << "cancelled task must report not-run";
  EXPECT_FALSE(exec.Wait(c)) << "cancellation propagates along dep edges";
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(exec.tasks_cancelled(), 2);
}

TEST(PipelineExecutorTest, ExceptionsCrossTheThreadBoundary) {
  for (const int workers : {0, 1}) {
    PipelineExecutor::Options options;
    options.workers = workers;
    PipelineExecutor exec(options);
    const auto id =
        exec.Submit([] { throw std::runtime_error("stage failure"); });
    EXPECT_THROW(exec.Wait(id), std::runtime_error) << "workers=" << workers;
  }
}

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

// Bitwise comparison: exact double equality on every per-trial accuracy
// and summary stat, byte equality on the kept embeddings.
void ExpectBitwiseEqual(const EvalResult& serial, const EvalResult& piped,
                        const std::string& label) {
  ASSERT_EQ(serial.trial_accuracy_percent.size(),
            piped.trial_accuracy_percent.size())
      << label;
  for (size_t t = 0; t < serial.trial_accuracy_percent.size(); ++t) {
    EXPECT_EQ(serial.trial_accuracy_percent[t],
              piped.trial_accuracy_percent[t])
        << label << " trial " << t;
  }
  EXPECT_EQ(serial.accuracy_percent.mean, piped.accuracy_percent.mean)
      << label;
  EXPECT_EQ(serial.accuracy_percent.std, piped.accuracy_percent.std) << label;
  EXPECT_EQ(serial.completed_queries, piped.completed_queries) << label;
  EXPECT_EQ(serial.deadline_expired, piped.deadline_expired) << label;
  ASSERT_EQ(serial.embeddings.rows(), piped.embeddings.rows()) << label;
  ASSERT_EQ(serial.embeddings.cols(), piped.embeddings.cols()) << label;
  EXPECT_EQ(std::memcmp(serial.embeddings.data().data(),
                        piped.embeddings.data().data(),
                        static_cast<size_t>(serial.embeddings.size()) *
                            sizeof(float)),
            0)
      << label << ": kept embedding bytes diverged";
  EXPECT_EQ(serial.embedding_labels, piped.embedding_labels) << label;
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
                       const PretrainCurves& piped,
                       const std::string& label) {
  ASSERT_EQ(serial.step, piped.step) << label;
  ASSERT_EQ(serial.loss.size(), piped.loss.size()) << label;
  for (size_t i = 0; i < serial.loss.size(); ++i) {
    EXPECT_EQ(serial.loss[i], piped.loss[i]) << label << " window " << i;
    EXPECT_EQ(serial.train_accuracy[i], piped.train_accuracy[i])
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

TEST(PipelineDeterminismTest, EvalBitwiseIdenticalAcrossThreadCounts) {
  PipelineEnvGuard guard;
  for (const DatasetBundle& dataset : EvalBackends()) {
    SetPipelineMode(PipelineMode::kOff);
    SetNumThreads(1);
    const EvalResult serial = RunEval(dataset);
    ASSERT_FALSE(serial.trial_accuracy_percent.empty()) << dataset.name;
    for (const int threads : {1, 2, 4, 8}) {
      SetPipelineMode(PipelineMode::kOn);
      SetNumThreads(threads);
      const EvalResult piped = RunEval(dataset);
      ExpectBitwiseEqual(serial, piped,
                         dataset.name + " threads=" +
                             std::to_string(threads));
    }
  }
}

TEST(PipelineDeterminismTest, AutoModeMatchesSerialAtEveryWidth) {
  PipelineEnvGuard guard;
  const DatasetBundle dataset = MakeBundleFromGraph(
      "auto_mode", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  SetPipelineMode(PipelineMode::kOff);
  SetNumThreads(1);
  const EvalResult serial = RunEval(dataset);
  // kAuto resolves to deferred-inline at --threads=1 and to the pipelined
  // schedule beyond it; both must match the serial pin.
  SetPipelineMode(PipelineMode::kAuto);
  for (const int threads : {1, 4}) {
    SetNumThreads(threads);
    const EvalResult piped = RunEval(dataset);
    ExpectBitwiseEqual(serial, piped,
                       "auto threads=" + std::to_string(threads));
  }
}

// ----------------------------------------------- end-to-end pretrain pins

TEST(PipelineDeterminismTest, PretrainCurvesBitwiseIdenticalInMemory) {
  PipelineEnvGuard guard;
  const DatasetBundle dataset = MakeBundleFromGraph(
      "pretrain_inmem", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  const PretrainConfig config = SmallPretrainConfig();
  SetPipelineMode(PipelineMode::kOff);
  SetNumThreads(1);
  GraphPrompterModel serial_model(SmallModelConfig());
  const PretrainCurves serial = Pretrain(&serial_model, dataset, config);
  ASSERT_FALSE(serial.loss.empty());
  for (const int threads : {1, 2, 4, 8}) {
    SetPipelineMode(PipelineMode::kOn);
    SetNumThreads(threads);
    GraphPrompterModel piped_model(SmallModelConfig());
    const PretrainCurves piped = Pretrain(&piped_model, dataset, config);
    ExpectCurvesEqual(serial, piped,
                      "inmem threads=" + std::to_string(threads));
  }
}

TEST(PipelineDeterminismTest, PretrainCurvesBitwiseIdenticalOverViews) {
  PipelineEnvGuard guard;
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
    SetPipelineMode(PipelineMode::kOff);
    SetNumThreads(1);
    GraphPrompterModel serial_model(SmallModelConfig());
    const PretrainCurves serial = Pretrain(&serial_model, *views[v], config);
    ASSERT_FALSE(serial.loss.empty()) << names[v];
    for (const int threads : {1, 2, 4, 8}) {
      SetPipelineMode(PipelineMode::kOn);
      SetNumThreads(threads);
      GraphPrompterModel piped_model(SmallModelConfig());
      const PretrainCurves piped = Pretrain(&piped_model, *views[v], config);
      ExpectCurvesEqual(serial, piped, std::string(names[v]) + " threads=" +
                                           std::to_string(threads));
    }
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- deadline at stage boundaries

// An expiring deadline must yield partial results with deadline_expired
// set, in either pipeline mode.
TEST(PipelineDeterminismTest, DeadlineMidPipelineYieldsPartialResults) {
  PipelineEnvGuard guard;
  const DatasetBundle dataset = MakeBundleFromGraph(
      "deadline", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  for (const PipelineMode mode : {PipelineMode::kOff, PipelineMode::kOn}) {
    SetPipelineMode(mode);
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
    EXPECT_TRUE(result.deadline_expired)
        << PipelineModeName(mode) << ": 64 trials in 1ms should expire";
    EXPECT_LT(result.trial_accuracy_percent.size(), 64u)
        << PipelineModeName(mode);
    // Partial results stay well-formed: every completed trial carries a
    // finite accuracy, and the summary is computed over exactly those.
    for (const double acc : result.trial_accuracy_percent) {
      EXPECT_GE(acc, 0.0);
      EXPECT_LE(acc, 100.0);
    }
  }
}

// A zero/absent deadline must never trip, pipelined or not.
TEST(PipelineDeterminismTest, DisabledDeadlineNeverExpires) {
  PipelineEnvGuard guard;
  const DatasetBundle dataset = MakeBundleFromGraph(
      "no_deadline", TaskType::kNodeClassification, SmallGraph(), 0.6, 11);
  SetPipelineMode(PipelineMode::kOn);
  SetNumThreads(2);
  const EvalResult result = RunEval(dataset);
  EXPECT_FALSE(result.deadline_expired);
  EXPECT_EQ(result.trial_accuracy_percent.size(), 4u);
}

}  // namespace
}  // namespace gp
