#include "core/task_graph.h"

#include "obs/trace.h"
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

  // Bipartite edges, both directions, with edge attributes. The attribute
  // buffer comes from the pool because `efeat` releases it there.
  const int num_edges = 2 * (num_prompts + num_queries) * num_classes;
  std::vector<int> src, dst;
  src.reserve(num_edges);
  dst.reserve(num_edges);
  std::vector<float> edge_feat =  // flattened (E x kEdgeFeatDim)
      AcquireBuffer(static_cast<size_t>(num_edges) * kEdgeFeatDim);
  auto add_edge = [&](int from, int to, bool is_true, bool is_false,
                      bool is_query, bool reverse) {
    float* f = edge_feat.data() + src.size() * kEdgeFeatDim;
    f[0] = is_true ? 1.0f : 0.0f;
    f[1] = is_false ? 1.0f : 0.0f;
    f[2] = is_query ? 1.0f : 0.0f;
    f[3] = reverse ? 1.0f : 0.0f;
    src.push_back(from);
    dst.push_back(to);
  };
  for (int p = 0; p < num_prompts; ++p) {
    for (int c = 0; c < num_classes; ++c) {
      const bool is_true = prompt_labels[p] == c;
      add_edge(p, label_base + c, is_true, !is_true, false, false);
      add_edge(label_base + c, p, is_true, !is_true, false, true);
    }
  }
  for (int q = 0; q < num_queries; ++q) {
    for (int c = 0; c < num_classes; ++c) {
      add_edge(num_prompts + q, label_base + c, false, false, true, false);
      add_edge(label_base + c, num_prompts + q, false, false, true, true);
    }
  }
  CHECK_EQ(static_cast<int>(src.size()), num_edges);
  Tensor efeat =
      Tensor::FromData(num_edges, kEdgeFeatDim, std::move(edge_feat));

  // Attention message passing (GNN_T).
  for (size_t li = 0; li < layers_.size(); ++li) {
    const auto& layer = *layers_[li];
    // message([h_src | efeat]), projected once per node (E x d).
    Tensor messages =
        GatherConcatLinear(h, src, efeat, layer.message->weight(),
                           layer.message->bias());
    // Attention logits combine source, destination, and edge attributes.
    Tensor logits = LeakyRelu(
        Add(Add(GatherRows(MatMul(h, layer.attn_src), src),
                GatherRows(MatMul(h, layer.attn_dst), dst)),
            MatMul(efeat, layer.attn_edge)),
        config_.leaky_slope);
    Tensor alpha = SegmentSoftmax(logits, dst, total_nodes);
    Tensor aggregated =
        RowScaleScatterAdd(messages, alpha, dst, total_nodes);
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
