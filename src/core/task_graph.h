// Task graph and its attention GNN_T (Sec. III-B "Task Graphs" and Eq. 10).
//
// The task graph is bipartite: data nodes (prompt and query data-graph
// embeddings) on one side, label nodes on the other. Every prompt connects
// to every label node with an edge attribute encoding {true label, false
// label}; query-label edges carry a distinct "query" attribute. An
// attention-based message-passing network (following Prodigy's task-graph
// model) fuses prompts into label embeddings and contextualises queries;
// the prediction is the label whose embedding is most cosine-similar to
// the query embedding (Eq. 11).

#ifndef GRAPHPROMPTER_CORE_TASK_GRAPH_H_
#define GRAPHPROMPTER_CORE_TASK_GRAPH_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace gp {

struct TaskGraphConfig {
  int embedding_dim = 64;
  int num_layers = 2;
  float leaky_slope = 0.2f;
  // Cosine scores are multiplied by this before the softmax/CE loss.
  float score_temperature = 10.0f;
};

struct TaskGraphOutput {
  // (Q x m) scaled cosine similarities — logits for prediction/loss.
  Tensor query_scores;
  // Final embeddings of query and label nodes ((Q x d), (m x d)).
  Tensor query_embeddings;
  Tensor label_embeddings;
};

// The attention network over the task graph.
class TaskGraphNet : public Module {
 public:
  TaskGraphNet(const TaskGraphConfig& config, Rng* rng);

  // prompt_embeddings: (P x d) — the (importance-weighted) prompt set;
  // prompt_labels: episode-local class per prompt (values in [0, m));
  // query_embeddings: (Q x d); num_classes: m.
  TaskGraphOutput Forward(const Tensor& prompt_embeddings,
                          const std::vector<int>& prompt_labels,
                          const Tensor& query_embeddings,
                          int num_classes) const;

  const TaskGraphConfig& config() const { return config_; }

 private:
  // Edge attribute layout (one-hot-ish, 4 dims):
  //   [0] prompt edge with TRUE label   [1] prompt edge with FALSE label
  //   [2] query edge                    [3] direction (0 = data->label).
  // So every edge carries one of six patterns: a prompt's edge to its true
  // label, to a false label, or a query's edge to a label, each in both
  // directions. An edge's message and attribute logit are functions of its
  // (source node, pattern) key, so inference computes each key's row once
  // (at most 2P + Q + 3m keys against E = 2(P + Q)m edges) and every edge
  // reads its key's row. Under autograd every edge is its own key.
  static constexpr int kEdgeFeatDim = 4;
  enum EdgePattern {
    kTrueToLabel, kFalseToLabel, kQueryToLabel,
    kTrueFromLabel, kFalseFromLabel, kQueryFromLabel,
    kNumEdgePatterns
  };

  struct AttentionLayer : public Module {
    AttentionLayer(int dim, Rng* rng);
    std::unique_ptr<Linear> message;   // (d + 4) -> d
    std::unique_ptr<Linear> self;      // d -> d
    Tensor attn_src;                   // (d x 1)
    Tensor attn_dst;                   // (d x 1)
    Tensor attn_edge;                  // (4 x 1)
    // ReZero-style residual gate, initialised to zero: the task graph
    // starts as a pure metric classifier over the label-node class means
    // and learns how much attention correction to apply.
    Tensor gate;                       // (1 x 1)
  };

  TaskGraphConfig config_;
  Tensor label_init_;  // learnable shared initial label-node embedding
  std::vector<std::unique_ptr<AttentionLayer>> layers_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_TASK_GRAPH_H_
