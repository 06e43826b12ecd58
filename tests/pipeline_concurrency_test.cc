// Concurrency soak for the pipelined stage executor (ctest label
// `concurrency`; run under TSan by scripts/check.sh).
//
// Two layers: raw executor stress (contended workers, jittered task
// durations, dependency chains, cancellation racing completion) and a
// seed-driven chaos soak that runs in-context evaluation on a 2-thread
// pool with the pipeline mode on (evaluation ignores it) under fault
// injection — NaN embeddings, dropped prompts, slow batches — and
// asserts graceful degradation: the run terminates (no deadlock), every
// query receives a prediction, and the degradation ledger accounts for
// the damage. The soak pins invariants, not bitwise outputs; the bitwise
// pins live in pipeline_determinism_test and serve_batch_test.
//
// ctest runs this binary with a timeout, which doubles as the deadlock
// detector for every soak below.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_prompter.h"
#include "data/synthetic.h"
#include "util/fault.h"
#include "util/parallel.h"
#include "util/pipeline.h"

namespace gp {
namespace {

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

// ------------------------------------------------------- executor stress

TEST(PipelineConcurrencyTest, ContendedWorkersRespectDependencyChains) {
  for (const int workers : {1, 2, 4}) {
    PipelineExecutor::Options options;
    options.workers = workers;
    options.max_in_flight = 6;
    PipelineExecutor exec(options);
    constexpr int kTasks = 120;
    std::vector<int64_t> values(kTasks, -1);
    std::vector<PipelineExecutor::TaskId> ids(kTasks, -1);
    for (int i = 0; i < kTasks; ++i) {
      std::vector<PipelineExecutor::TaskId> deps;
      if (i >= 4) deps.push_back(ids[i - 4]);  // four interleaved chains
      ids[i] = exec.Submit(
          [&values, i] {
            if (i % 7 == 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            // A chained task reads its predecessor's slot: the dependency
            // edge (not luck) is what makes this safe and ordered.
            const int64_t prev = i >= 4 ? values[i - 4] : 0;
            values[i] = prev + i;
          },
          std::move(deps));
    }
    exec.WaitAll();
    EXPECT_EQ(exec.tasks_completed(), kTasks);
    for (int i = 0; i < kTasks; ++i) {
      const int64_t prev = i >= 4 ? values[i - 4] : 0;
      ASSERT_EQ(values[i], prev + i) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(PipelineConcurrencyTest, ConsumerSeesResultsInSubmissionOrder) {
  PipelineExecutor::Options options;
  options.workers = 2;
  options.max_in_flight = 4;
  PipelineExecutor exec(options);
  constexpr int kTasks = 64;
  std::vector<int> slots(kTasks, -1);
  std::vector<PipelineExecutor::TaskId> ids;
  std::vector<int> consumed;
  for (int i = 0; i < kTasks; ++i) {
    // Earlier tasks sleep longer: completion order is roughly *reversed*
    // within each admission window, the adversarial case for reduction
    // order.
    ids.push_back(exec.Submit([&slots, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(400 - (i % 4) * 100));
      slots[i] = i;
    }));
    if (i >= 2) {
      ASSERT_TRUE(exec.Wait(ids[i - 2]));
      consumed.push_back(slots[i - 2]);
    }
  }
  for (int i = kTasks - 2; i < kTasks; ++i) {
    ASSERT_TRUE(exec.Wait(ids[i]));
    consumed.push_back(slots[i]);
  }
  ASSERT_EQ(consumed.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(consumed[i], i) << "reduction order broke at " << i;
  }
}

TEST(PipelineConcurrencyTest, CancellationRacesCompletionSafely) {
  for (int round = 0; round < 8; ++round) {
    PipelineExecutor::Options options;
    options.workers = 2;
    options.max_in_flight = 8;
    PipelineExecutor exec(options);
    std::atomic<int> ran{0};
    std::vector<PipelineExecutor::TaskId> ids;
    for (int i = 0; i < 16; ++i) {
      ids.push_back(exec.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1);
      }));
    }
    exec.CancelPending();  // races the workers draining the queue
    int ran_per_wait = 0;
    for (const auto id : ids) {
      if (exec.Wait(id)) ++ran_per_wait;
    }
    // However the race lands, the ledger must balance and no task may be
    // double-run or lost.
    EXPECT_EQ(ran.load(), ran_per_wait);
    EXPECT_EQ(exec.tasks_completed() + exec.tasks_cancelled(), 16);
  }
}

// ------------------------------------------------------------ chaos soak

Graph SoakGraph() {
  NodeGraphConfig config;
  config.num_nodes = 150;
  config.num_classes = 5;
  config.feature_dim = 8;
  return MakeNodeClassificationGraph(config);
}

GraphPrompterConfig SoakModelConfig() {
  GraphPrompterConfig config = FullGraphPrompterConfig(8, 3);
  config.embedding_dim = 8;
  config.recon_hidden = 8;
  config.selection_hidden = 8;
  return config;
}

TEST(PipelineConcurrencyTest, ChaosSoakDegradesGracefullyWithoutDeadlock) {
  PipelineEnvGuard guard;
  SetPipelineMode(PipelineMode::kOn);
  SetNumThreads(2);
  const DatasetBundle dataset = MakeBundleFromGraph(
      "chaos_soak", TaskType::kNodeClassification, SoakGraph(), 0.6, 11);
  GraphPrompterModel model(SoakModelConfig());

  auto spec = ParseFaultSpec(
      "embed_nan=0.3,prompt_drop=0.3,slow_every=3,slow_ms=1,seed=7");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  for (const uint64_t seed : {101u, 202u, 303u}) {
    ScopedFaultInjection chaos(*spec);
    EvalConfig eval;
    eval.ways = 3;
    eval.shots = 2;
    eval.candidates_per_class = 6;
    eval.num_queries = 12;
    eval.trials = 5;
    eval.seed = seed;
    const EvalResult result = EvaluateInContext(model, dataset, eval);

    // Graceful degradation: every trial completes, every query is
    // predicted, accuracies stay well-formed — never NaN, never a crash.
    ASSERT_EQ(result.trial_accuracy_percent.size(), 5u) << "seed " << seed;
    EXPECT_EQ(result.completed_queries, 5 * 12) << "seed " << seed;
    for (const double acc : result.trial_accuracy_percent) {
      ASSERT_GE(acc, 0.0);
      ASSERT_LE(acc, 100.0);
    }
    // The ledger must show the chaos was actually exercised: embed faults
    // land after the packed encode, prompt drops in selection and slow
    // batches in stage 3.
    const DegradationStats& d = result.degradation;
    EXPECT_GT(d.quarantined_prompts + d.sanitized_queries, 0) << seed;
    EXPECT_GT(d.slow_batches, 0) << seed;
  }
}

// The soak again with a deadline: expiry mid-chaos must still terminate
// promptly with partial results.
TEST(PipelineConcurrencyTest, ChaosWithDeadlineTerminatesWithPartialResults) {
  PipelineEnvGuard guard;
  SetPipelineMode(PipelineMode::kOn);
  SetNumThreads(2);
  const DatasetBundle dataset = MakeBundleFromGraph(
      "chaos_deadline", TaskType::kNodeClassification, SoakGraph(), 0.6, 11);
  GraphPrompterModel model(SoakModelConfig());
  auto spec = ParseFaultSpec("embed_nan=0.2,slow_every=2,slow_ms=2,seed=9");
  ASSERT_TRUE(spec.ok());
  ScopedFaultInjection chaos(*spec);

  EvalConfig eval;
  eval.ways = 3;
  eval.shots = 2;
  eval.candidates_per_class = 6;
  eval.num_queries = 12;
  eval.trials = 64;
  eval.seed = 5;
  eval.deadline_us = 2000;
  const EvalResult result = EvaluateInContext(model, dataset, eval);
  EXPECT_TRUE(result.deadline_expired);
  EXPECT_LT(result.trial_accuracy_percent.size(), 64u);
}

}  // namespace
}  // namespace gp
