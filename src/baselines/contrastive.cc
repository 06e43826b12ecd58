#include "baselines/contrastive.h"

#include <algorithm>

#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace gp {

ContrastiveEncoder::ContrastiveEncoder(int feature_dim, int embedding_dim,
                                       const SamplerConfig& sampler,
                                       uint64_t seed) {
  Rng rng(seed);
  PromptGeneratorConfig config;
  config.gnn.in_dim = feature_dim;
  config.gnn.hidden_dim = embedding_dim;
  config.gnn.out_dim = embedding_dim;
  config.sampler = sampler;
  config.use_reconstruction = false;
  generator_ = std::make_unique<PromptGenerator>(config, &rng);
  RegisterModule("encoder", generator_.get());
}

Tensor ContrastiveEncoder::EmbedItems(const DatasetBundle& dataset,
                                      const std::vector<int>& items, Rng* rng,
                                      const Tensor& feature_offset) const {
  std::vector<Subgraph> subgraphs;
  subgraphs.reserve(items.size());
  for (int item : items) {
    subgraphs.push_back(generator_->SampleForItem(dataset, item, rng));
  }
  return generator_->EmbedSubgraphs(GraphAdapter(dataset.graph), subgraphs,
                                    feature_offset);
}

double PretrainContrastive(ContrastiveEncoder* encoder,
                           const DatasetBundle& dataset,
                           const ContrastivePretrainConfig& config) {
  CHECK(encoder != nullptr);
  Rng rng(config.seed);
  Adam optimizer(encoder->Parameters(), config.learning_rate, 0.9f, 0.999f,
                 1e-8f, config.weight_decay);

  // Pool of train items across all classes.
  std::vector<int> pool;
  for (const auto& items : dataset.train_items_by_class) {
    pool.insert(pool.end(), items.begin(), items.end());
  }
  CHECK_GE(static_cast<int>(pool.size()), config.batch_size);

  double tail_loss = 0.0;
  int tail_count = 0;
  const int tail_start = config.steps - std::max(1, config.steps / 4);

  for (int step = 1; step <= config.steps; ++step) {
    optimizer.ZeroGrad();
    // Batch of random items; two independently sampled subgraph views.
    std::vector<int> batch(config.batch_size);
    for (auto& item : batch) {
      item = pool[rng.UniformInt(pool.size())];
    }
    Tensor z1 = RowL2Normalize(encoder->EmbedItems(dataset, batch, &rng));
    Tensor z2 = RowL2Normalize(encoder->EmbedItems(dataset, batch, &rng));

    // NT-Xent: match each view-1 row to its view-2 counterpart (and
    // symmetrically), against in-batch negatives.
    Tensor logits = Scale(MatMul(z1, Transpose(z2)), 1.0f / config.temperature);
    std::vector<int> diagonal(config.batch_size);
    for (int i = 0; i < config.batch_size; ++i) diagonal[i] = i;
    Tensor loss = Add(CrossEntropyWithLogits(logits, diagonal),
                      CrossEntropyWithLogits(Transpose(logits), diagonal));

    Backward(loss);
    optimizer.ClipGradNorm(config.grad_clip);
    optimizer.Step();

    if (step >= tail_start) {
      tail_loss += loss.item();
      ++tail_count;
    }
  }
  return tail_count > 0 ? tail_loss / tail_count : 0.0;
}

EvalResult EvaluateContrastive(const ContrastiveEncoder& encoder,
                               const DatasetBundle& dataset,
                               const EvalConfig& eval_config) {
  EvalResult result;
  Rng rng(eval_config.seed);
  EpisodeSampler sampler(&dataset);

  EpisodeConfig episode;
  episode.ways = eval_config.ways;
  episode.candidates_per_class = eval_config.candidates_per_class;
  episode.num_queries = eval_config.num_queries;

  for (int trial = 0; trial < eval_config.trials; ++trial) {
    NoGradGuard no_grad;
    Rng trial_rng = rng.Fork();
    auto task_or = sampler.Sample(episode, &trial_rng);
    CHECK_OK(task_or.status());
    const FewShotTask& task = *task_or;
    const int ways = task.ways();

    // k random support examples per class (random selection, as Prodigy).
    std::vector<int> support_items, support_labels;
    for (int cls = 0; cls < ways; ++cls) {
      std::vector<int> members;
      for (const auto& ex : task.candidates) {
        if (ex.label == cls) members.push_back(ex.item);
      }
      trial_rng.Shuffle(&members);
      const int keep = std::min<int>(eval_config.shots, members.size());
      for (int i = 0; i < keep; ++i) {
        support_items.push_back(members[i]);
        support_labels.push_back(cls);
      }
    }
    Tensor support_emb =
        encoder.EmbedItems(dataset, support_items, &trial_rng);
    // Class centroids.
    Tensor centroids =
        SegmentMeanRows(support_emb, support_labels, ways);

    std::vector<int> query_items, expected;
    for (const auto& ex : task.queries) {
      query_items.push_back(ex.item);
      expected.push_back(ex.label);
    }
    Tensor query_emb = encoder.EmbedItems(dataset, query_items, &trial_rng);

    Tensor scores = MatMul(RowL2Normalize(query_emb),
                           Transpose(RowL2Normalize(centroids)));
    result.trial_accuracy_percent.push_back(
        100.0 * Accuracy(ArgmaxRows(scores), expected));
  }
  result.accuracy_percent = ComputeMeanStd(result.trial_accuracy_percent);
  return result;
}

}  // namespace gp
