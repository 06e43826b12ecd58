// GraphPrompter — the end-to-end model (Fig. 2) and its in-context
// evaluation loop (Algorithm 2).
//
// The model owns the three stages:
//   Prompt Generator (subgraph sampling + edge-weight reconstruction + GNN_D)
//   Prompt Selector  (selection layers + kNN retrieval + query voting)
//   Prompt Augmenter (LFU cache of pseudo-labelled test queries)
// plus the task-graph attention network GNN_T. Stage toggles in the config
// express the paper's ablations and the Prodigy baseline.

#ifndef GRAPHPROMPTER_CORE_GRAPH_PROMPTER_H_
#define GRAPHPROMPTER_CORE_GRAPH_PROMPTER_H_

#include <memory>
#include <vector>

#include "core/degradation.h"
#include "core/knn_retrieval.h"
#include "core/metrics.h"
#include "core/prompt_augmenter.h"
#include "core/prompt_generator.h"
#include "core/selection_layer.h"
#include "core/task_graph.h"
#include "data/episode.h"
#include "util/status.h"

namespace gp {

struct GraphPrompterConfig {
  // Architecture.
  int feature_dim = 64;    // input feature dimension (dataset-dependent)
  int embedding_dim = 64;  // data-graph / task-graph embedding size
  GnnArch gnn_arch = GnnArch::kSage;  // GNN_D (Fig. 4 swaps to kGat)
  int gnn_layers = 2;
  int recon_hidden = 64;
  int selection_hidden = 64;
  int task_layers = 2;
  float score_temperature = 10.0f;
  SamplerConfig sampler;  // l-hop (default 1), node cap, walks

  // Stage toggles (full GraphPrompter = all true; Prodigy = all false with
  // random_prompt_selection = true).
  bool use_reconstruction = true;
  bool use_selection_layer = true;
  bool use_knn = true;
  bool use_augmenter = true;
  bool random_prompt_selection = false;

  DistanceMetric metric = DistanceMetric::kCosine;
  // Further-Discussion extension points.
  SelectorKind selector = SelectorKind::kKnnVoting;
  ReconArch recon_arch = ReconArch::kMlp;
  PromptAugmenterConfig augmenter;
  // Pseudo-label prompts inserted into the cache per observed query batch.
  int cache_inserts_per_batch = 1;

  uint64_t seed = 42;
};

// Config invariants: positive dimensions and layer counts, a finite
// positive score temperature, sane sampler caps, and a cache/confidence
// setup the augmenter can actually honor. Checked at the pipeline boundary
// (model construction, examples, benches) so a bad config fails with a
// typed error instead of a crash deep inside a kernel.
Status Validate(const GraphPrompterConfig& config);

// The trainable model (generator + selection layer + task network).
class GraphPrompterModel : public Module {
 public:
  explicit GraphPrompterModel(const GraphPrompterConfig& config);

  const GraphPrompterConfig& config() const { return config_; }
  PromptGenerator& generator() { return *generator_; }
  const PromptGenerator& generator() const { return *generator_; }
  SelectionLayer& selection() { return *selection_; }
  const SelectionLayer& selection() const { return *selection_; }
  TaskGraphNet& task_net() { return *task_net_; }
  const TaskGraphNet& task_net() const { return *task_net_; }

 private:
  GraphPrompterConfig config_;
  std::unique_ptr<PromptGenerator> generator_;
  std::unique_ptr<SelectionLayer> selection_;
  std::unique_ptr<TaskGraphNet> task_net_;
};

// ------------------------------------------------------------ evaluation

struct EvalConfig {
  int ways = 5;                   // m
  int shots = 3;                  // k (paper default 3)
  int candidates_per_class = 10;  // N (paper default 10)
  int num_queries = 100;          // test queries per trial (paper: 500)
  int query_batch = 4;            // queries per task-graph step
  int trials = 5;                 // episodes averaged into mean ± std
  uint64_t seed = 123;
  // When true, keeps the final trial's data-node embeddings for Fig. 7.
  bool keep_embeddings = false;

  // ---- Serving extension (src/serve). The default leaves batch
  // evaluation bitwise identical to the pre-serving pipeline.

  // Wall-clock budget for the whole call, in microseconds; 0 disables the
  // deadline. Checked at stage boundaries (before sampling a trial, before
  // and after selection, at trial start and per query batch in stage 3):
  // on expiry the evaluation stops early, sets EvalResult::deadline_expired,
  // and reports only the trials that finished.
  int64_t deadline_us = 0;
};

struct EvalResult {
  MeanStd accuracy_percent;         // over trials
  std::vector<double> trial_accuracy_percent;
  // Table VIII timing: the query subgraphs' share of the packed encode
  // plus stage-3 prediction, per completed query.
  double ms_per_query = 0.0;
  // Populated when EvalConfig::keep_embeddings: prompts'+queries'
  // data-graph embeddings of the final trial with episode labels.
  Tensor embeddings;
  std::vector<int> embedding_labels;
  // How often each graceful-degradation fallback fired across all trials
  // (all zeros on a clean run). See core/degradation.h.
  DegradationStats degradation;
  // True when EvalConfig::deadline_us expired before all trials finished;
  // accuracy then covers only the completed trials (possibly none).
  bool deadline_expired = false;
  // Queries actually predicted (equals trials * num_queries unless the
  // deadline cut the run short).
  int64_t completed_queries = 0;
};

// Runs Algorithm 2: per trial, samples an episode, embeds candidates and
// queries, selects prompts (kNN + selection layer + voting, or random for
// the Prodigy configuration), streams query batches through the task graph
// with optional cache augmentation, and scores accuracy. Runs as a batch
// of one through BatchEvaluation (core/batch_eval.h) with default stage-3
// options; a serving tenant's safe mode, which skips the augmenter, is one
// of those options (BatchStage3Options), not an EvalConfig field.
//
// Fault tolerance: non-finite candidate embeddings are quarantined and the
// selector degrades along kNN -> selection-layer-only -> random; non-finite
// query embeddings are sanitized; the augmenter evicts poisoned cache
// entries and is skipped entirely when the cache is unhealthy; non-finite
// prediction scores fall back to deterministic per-query votes. Every
// fallback increments EvalResult::degradation. When the process-global
// FaultInjector (util/fault.h) is configured, faults are injected at each
// of these sites; with injection off, results are bitwise identical to the
// unvalidated pipeline.
EvalResult EvaluateInContext(const GraphPrompterModel& model,
                             const DatasetBundle& dataset,
                             const EvalConfig& eval_config);

// Convenience presets.
GraphPrompterConfig FullGraphPrompterConfig(int feature_dim, uint64_t seed);

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_GRAPH_PROMPTER_H_
