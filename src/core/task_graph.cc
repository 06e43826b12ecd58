#include "core/task_graph.h"

#include <algorithm>

#include "obs/trace.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace gp {

TaskGraphNet::AttentionLayer::AttentionLayer(int dim, Rng* rng) {
  message = std::make_unique<Linear>(dim + kEdgeFeatDim, dim, rng);
  self = std::make_unique<Linear>(dim, dim, rng);
  RegisterModule("message", message.get());
  RegisterModule("self", self.get());
  attn_src = RegisterParameter("attn_src", Tensor::Xavier(dim, 1, rng));
  attn_dst = RegisterParameter("attn_dst", Tensor::Xavier(dim, 1, rng));
  attn_edge =
      RegisterParameter("attn_edge", Tensor::Xavier(kEdgeFeatDim, 1, rng));
  gate = RegisterParameter("gate", Tensor::Zeros(1, 1));
}

TaskGraphNet::TaskGraphNet(const TaskGraphConfig& config, Rng* rng)
    : config_(config) {
  CHECK_GE(config.num_layers, 1);
  label_init_ = RegisterParameter(
      "label_init",
      Tensor::Randn(1, config.embedding_dim, rng, /*stddev=*/0.1f));
  for (int i = 0; i < config.num_layers; ++i) {
    layers_.push_back(
        std::make_unique<AttentionLayer>(config.embedding_dim, rng));
    RegisterModule("attn" + std::to_string(i), layers_.back().get());
  }
}

TaskGraphOutput TaskGraphNet::Forward(const Tensor& prompt_embeddings,
                                      const std::vector<int>& prompt_labels,
                                      const Tensor& query_embeddings,
                                      int num_classes) const {
  GP_TRACE_SPAN("task_graph/forward");
  const int num_prompts = prompt_embeddings.rows();
  const int num_queries = query_embeddings.rows();
  const int dim = config_.embedding_dim;
  CHECK_EQ(prompt_embeddings.cols(), dim);
  CHECK_EQ(query_embeddings.cols(), dim);
  CHECK_EQ(static_cast<size_t>(num_prompts), prompt_labels.size());
  CHECK_GE(num_classes, 1);

  // Node layout: [prompts | queries | labels].
  const int label_base = num_prompts + num_queries;
  const int total_nodes = label_base + num_classes;

  // Initial features: data-graph embeddings for data nodes. Label nodes
  // start from the mean of their true-class prompts ("label embeddings in
  // the task graph are aggregated from prompts", Sec. IV-B1) plus a shared
  // learnable offset; the attention layers then refine them.
  Tensor label_rows =
      Add(SegmentMeanRows(prompt_embeddings, prompt_labels, num_classes),
          label_init_);
  Tensor h = ConcatRows({prompt_embeddings, query_embeddings, label_rows});

  // Bipartite edges, both directions. An edge's message and its attribute
  // logit depend only on its (source node, pattern) key. At inference each
  // key is computed once and every edge reads its key's row: bitwise the
  // per-edge rows, because rows are independent. Under autograd every edge
  // is its own key, which keeps the per-edge training graph and its
  // gradient order. The attribute buffer comes from the pool because
  // `key_feat` releases it there.
  const int num_edges = 2 * (num_prompts + num_queries) * num_classes;
  const bool per_edge = GradEnabled();
  const int max_keys =
      per_edge ? num_edges : 2 * num_prompts + num_queries + 3 * num_classes;
  std::vector<int> src, dst, edge_key, key_src;
  src.reserve(num_edges);
  dst.reserve(num_edges);
  edge_key.reserve(num_edges);
  key_src.reserve(max_keys);
  std::vector<float> key_attr =  // flattened (K x kEdgeFeatDim)
      AcquireBuffer(static_cast<size_t>(max_keys) * kEdgeFeatDim);
  static constexpr float kPatternAttr[kNumEdgePatterns][kEdgeFeatDim] = {
      {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0},  // data -> label
      {1, 0, 0, 1}, {0, 1, 0, 1}, {0, 0, 1, 1},  // label -> data
  };
  std::vector<int> key_of;  // (node, pattern) -> key, inference only
  if (!per_edge) {
    key_of.assign(static_cast<size_t>(total_nodes) * kNumEdgePatterns, -1);
  }
  auto add_edge = [&](int from, int to, EdgePattern pattern) {
    int key = static_cast<int>(key_src.size());
    if (!per_edge) {
      int& slot = key_of[static_cast<size_t>(from) * kNumEdgePatterns +
                         pattern];
      if (slot < 0) slot = key;
      key = slot;
    }
    if (key == static_cast<int>(key_src.size())) {
      std::copy_n(kPatternAttr[pattern], kEdgeFeatDim,
                  key_attr.data() + key_src.size() * kEdgeFeatDim);
      key_src.push_back(from);
    }
    src.push_back(from);
    dst.push_back(to);
    edge_key.push_back(key);
  };
  for (int p = 0; p < num_prompts; ++p) {
    for (int c = 0; c < num_classes; ++c) {
      const bool is_true = prompt_labels[p] == c;
      add_edge(p, label_base + c, is_true ? kTrueToLabel : kFalseToLabel);
      add_edge(label_base + c, p, is_true ? kTrueFromLabel : kFalseFromLabel);
    }
  }
  for (int q = 0; q < num_queries; ++q) {
    for (int c = 0; c < num_classes; ++c) {
      add_edge(num_prompts + q, label_base + c, kQueryToLabel);
      add_edge(label_base + c, num_prompts + q, kQueryFromLabel);
    }
  }
  CHECK_EQ(static_cast<int>(src.size()), num_edges);
  const int num_keys = static_cast<int>(key_src.size());
  key_attr.resize(static_cast<size_t>(num_keys) * kEdgeFeatDim);
  Tensor key_feat =
      Tensor::FromData(num_keys, kEdgeFeatDim, std::move(key_attr));

  // Attention message passing (GNN_T).
  for (size_t li = 0; li < layers_.size(); ++li) {
    const auto& layer = *layers_[li];
    // message([h_src | pattern attributes]), one row per key (K x d),
    // projected once per node.
    Tensor messages =
        GatherConcatLinear(h, key_src, key_feat, layer.message->weight(),
                           layer.message->bias());
    // Attention logits combine source, destination, and edge attributes.
    Tensor logits = GatherAddLeakyRelu(
        MatMul(h, layer.attn_src), src, MatMul(h, layer.attn_dst), dst,
        MatMul(key_feat, layer.attn_edge), edge_key, config_.leaky_slope);
    Tensor alpha = SegmentSoftmax(logits, dst, total_nodes);
    Tensor aggregated =
        GatherScaleScatterSum(messages, edge_key, dst, total_nodes, alpha);
    // Residual update: the initial metric structure (queries vs class
    // means) is preserved and the attention learns a correction.
    Tensor update = Add(layer.self->Forward(h), aggregated);
    if (li + 1 < layers_.size()) update = Relu(update);
    h = Add(h, Mul(update, layer.gate));
  }

  TaskGraphOutput out;
  out.query_embeddings = SliceRows(h, num_prompts, num_queries);
  out.label_embeddings = SliceRows(h, label_base, num_classes);
  // Eq. 11: cosine similarity between query and label embeddings, scaled
  // into logits.
  Tensor qn = RowL2Normalize(out.query_embeddings);
  Tensor ln = RowL2Normalize(out.label_embeddings);
  out.query_scores =
      Scale(MatMul(qn, Transpose(ln)), config_.score_temperature);
  return out;
}

}  // namespace gp
