// Pre-training (Sec. IV-D, Algorithm 1): joint optimisation of the
// generator, selection layer, and task network with the two episodic
// objectives of Prodigy — Neighbor Matching (Eq. 12) and Multi-Task
// (Eq. 13) — summed into the total loss (Eq. 14), optimised with AdamW.

#ifndef GRAPHPROMPTER_CORE_PRETRAIN_H_
#define GRAPHPROMPTER_CORE_PRETRAIN_H_

#include <vector>

#include "core/graph_prompter.h"
#include "data/datasets.h"
#include "graph/graph_view.h"

namespace gp {

struct PretrainConfig {
  int steps = 400;
  int ways = 5;             // m per episode (paper: 30 at full scale)
  int shots = 3;            // k prompts per class
  int queries_per_task = 4; // n queries per episode (paper: 4)
  float learning_rate = 1e-3f;   // paper: AdamW, lr 1e-3
  float weight_decay = 1e-3f;    // paper: 1e-3
  float grad_clip = 5.0f;
  bool neighbor_matching = true;
  bool multi_task = true;
  int log_every = 50;
  bool verbose = false;
  uint64_t seed = 7;
};

// Logged training trajectory (Fig. 9 plots these curves).
struct PretrainCurves {
  std::vector<int> step;
  std::vector<double> loss;
  std::vector<double> train_accuracy;  // episode query accuracy, percent
};

// Trains `model` in place on `dataset` and returns the loss/accuracy
// trajectory. Multi-Task episodes come from the dataset's train split, so
// its task type decides whether they classify nodes or edges; Neighbor
// Matching always operates on nodes, through a GraphAdapter over the
// dataset's graph.
PretrainCurves Pretrain(GraphPrompterModel* model,
                        const DatasetBundle& dataset,
                        const PretrainConfig& config);

// Episodic pretraining directly against a GraphView backend (CsrStore
// shards or CsrGraph), which has no splits: Multi-Task episodes
// rejection-sample class-balanced node sets from the view's labels.
// Neighbor Matching and the training loop are the ones above. Memory stays
// proportional to episode size, never to the graph.
PretrainCurves Pretrain(GraphPrompterModel* model, const GraphView& view,
                        const PretrainConfig& config);

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_PRETRAIN_H_
