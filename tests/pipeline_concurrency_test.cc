// Chaos soak for the prompt pipeline (ctest label `concurrency`; run under
// TSan by scripts/check.sh).
//
// A seed-driven soak runs in-context evaluation on a 2-thread pool under
// fault injection — NaN embeddings, dropped prompts, slow batches — and
// asserts graceful degradation: the run terminates (no deadlock), every
// query receives a prediction, and the degradation ledger accounts for
// the damage. The soak pins invariants, not bitwise outputs; the bitwise
// pins live in pipeline_determinism_test and serve_batch_test.
//
// ctest runs this binary with a timeout, which doubles as the deadlock
// detector for every soak below.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_prompter.h"
#include "data/synthetic.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace gp {
namespace {

// Restores the process-wide ParallelFor width after each test.
class PipelineConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_threads_ = NumThreads(); }
  void TearDown() override { SetNumThreads(previous_threads_); }

 private:
  int previous_threads_ = 1;
};

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

TEST_F(PipelineConcurrencyTest, ChaosSoakDegradesGracefullyWithoutDeadlock) {
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
TEST_F(PipelineConcurrencyTest, ChaosWithDeadlineTerminatesWithPartialResults) {
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
