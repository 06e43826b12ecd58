// In-context evaluation (Algorithm 2), batched across requests — the one
// evaluation path. EvaluateInContext runs as a batch of one; the serving
// micro-batcher packs many requests.
//
// `BatchEvaluation` runs N `EvalConfig` requests so the expensive shared
// stages run once per batch instead of once per request. Prepare runs
// stages 1-2: per trial index, one disjoint-union subgraph encode over
// that trial of every request (packing across requests, not across a
// request's trials, bounds peak memory by one trial's union), then one
// stacked selection-layer importance pass and per-unit prompt selection.
// Stage 3 (task-graph prediction, query batch by query batch with the
// augmenter's cache updated between steps) is consumed per request via
// FinishRequest, so the serving daemon can interleave per-tenant state
// (circuit breaker, shared augmenter cache) between requests.
//
// Determinism contract (pinned by tests/serve_batch_test.cc and the eval
// goldens in tests/golden_eval_test.cc): every request's EvalResult is
// bitwise identical to evaluating it alone — accuracy bit patterns, trial
// accuracies, degradation counters, deadline flags, predictions.
// Wall-clock fields (ms_per_query) and deadline *cut points* under an
// actively-expiring deadline are timing and excluded. Each request's
// trial RNGs are forked from its master seed upfront (the master is used
// for nothing else) and every draw stays inside the trial's own stream:
// episode sample, per-subgraph walks, selection draws, the unconditional
// augmenter seed, prediction fallbacks.
//
// Fault injection draws from one shared stream in packed stage order:
// CorruptRows on each unit's candidate and query slices after each trial
// index's encode, MutatePromptSet per unit before prompt dedup, then the
// per-step stage-3 sites in FinishRequest order. Interleaving requests
// would therefore reshuffle a request's faults; the serving batcher
// flushes fault-carrying requests as batches of one.

#ifndef GRAPHPROMPTER_CORE_BATCH_EVAL_H_
#define GRAPHPROMPTER_CORE_BATCH_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/graph_prompter.h"

namespace gp {

// Per-request stage-3 options resolved at FinishRequest time. The serving
// daemon computes them under the tenant lock right before consuming a
// request, because they depend on the breaker outcome of the previous
// request (BeginRequestSafeMode).
struct BatchStage3Options {
  bool disable_augmenter = false;  // tenant safe mode
  // When set, stage 3 uses this caller-owned augmenter (and its LFU cache)
  // instead of a per-trial instance, so cache state persists across
  // requests: the tenant's warm cache. Health accounting is delta-based,
  // so shared state never double-counts. The caller serializes its use.
  PromptAugmenter* shared_augmenter = nullptr;
};

class BatchEvaluation {
 public:
  // References must outlive the object. One EvalConfig per request.
  BatchEvaluation(const GraphPrompterModel& model,
                  const DatasetBundle& dataset,
                  std::vector<EvalConfig> configs);
  ~BatchEvaluation();

  BatchEvaluation(const BatchEvaluation&) = delete;
  BatchEvaluation& operator=(const BatchEvaluation&) = delete;

  int size() const { return static_cast<int>(configs_.size()); }

  // Runs stages 1-2 for every request (packed). Call exactly once, before
  // any FinishRequest. Thread-locals (NoGradGuard, pool scope) are
  // established internally.
  void Prepare();

  // Consumes request `i`: stage 3, prediction, metrics assembly. Call
  // exactly once per request after Prepare(); calls must be externally
  // serialized (the daemon's batch worker is single-threaded per batch)
  // and must run under the same fault-injector scope as Prepare().
  EvalResult FinishRequest(int i, const BatchStage3Options& options);

 private:
  struct RequestState;

  const GraphPrompterModel& model_;
  const DatasetBundle& dataset_;
  std::vector<EvalConfig> configs_;
  std::vector<std::unique_ptr<RequestState>> requests_;
  bool prepared_ = false;
};

// Prepare + FinishRequest for every config in order, each with default
// stage-3 options (the augmenter as the model config sets it, a per-trial
// cache), all under one PoolScope (the pool drains once per call). On a
// clean run, equivalent to calling EvaluateInContext once per config.
std::vector<EvalResult> EvaluateInContextBatch(
    const GraphPrompterModel& model, const DatasetBundle& dataset,
    const std::vector<EvalConfig>& configs);

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_BATCH_EVAL_H_
