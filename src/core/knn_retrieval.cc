#include "core/knn_retrieval.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/kmeans.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gp {

KnnSelection SelectPrompts(const Tensor& prompt_embeddings,
                           const Tensor& prompt_importance,
                           const std::vector<int>& prompt_labels,
                           const Tensor& query_embeddings,
                           const Tensor& query_importance, int num_classes,
                           const KnnConfig& config) {
  GP_TRACE_SPAN("selector/knn");
  const int num_prompts = prompt_embeddings.rows();
  const int num_queries = query_embeddings.rows();
  CHECK_EQ(static_cast<size_t>(num_prompts), prompt_labels.size());
  CHECK_GE(num_classes, 1);

  static Counter* pairs = Telemetry().GetCounter("selector/scored_pairs");
  pairs->Add(static_cast<int64_t>(num_prompts) * num_queries);

  KnnSelection out;
  out.votes.assign(num_prompts, 0.0);
  out.hit_counts.assign(num_prompts, 0);

  if ((config.use_similarity || config.use_importance) && num_prompts > 0) {
    const int dim = prompt_embeddings.cols();
    const float* pdata = prompt_embeddings.data().data();
    const float* qdata = query_embeddings.data().data();
    const bool with_importance = config.use_importance &&
                                 prompt_importance.defined() &&
                                 query_importance.defined();
    const float* pimp =
        with_importance ? prompt_importance.data().data() : nullptr;
    const float* qimp =
        with_importance ? query_importance.data().data() : nullptr;

    // Cosine norms are shared across all pairs; hoist them out of the
    // O(P*Q) loop.
    std::vector<double> prompt_norm, query_norm;
    const bool cosine =
        config.use_similarity && config.metric == DistanceMetric::kCosine;
    if (cosine) {
      prompt_norm = RowNorms(prompt_embeddings);
      query_norm = RowNorms(query_embeddings);
    }

    // Eq. 7 score of candidate p against query q, with the cosine norms
    // hoisted.
    auto score_pair = [&](int p, int64_t q, const float* qrow) {
      double score = 0.0;
      if (config.use_similarity) {
        const float* prow = pdata + static_cast<size_t>(p) * dim;
        switch (config.metric) {
          case DistanceMetric::kCosine:
            score += CosineFromParts(DotRaw(prow, qrow, dim), prompt_norm[p],
                                     query_norm[q]);
            break;
          case DistanceMetric::kEuclidean:
            score += NegEuclideanRaw(prow, qrow, dim);
            break;
          case DistanceMetric::kManhattan:
            score += NegManhattanRaw(prow, qrow, dim);
            break;
        }
      }
      if (with_importance) {
        score += static_cast<double>(pimp[p]) * qimp[q];
      }
      return score;
    };

    // score(p, q) per Eq. 7 for every pair, then top-k votes per query
    // (Eq. 8). Queries score independently into per-query top-k lists
    // (parallel); votes merge serially in query order, so totals match a
    // serial run bitwise.
    const int k = std::min(config.shots, num_prompts);
    std::vector<std::vector<std::pair<double, int>>> topk(num_queries);
    const int64_t work_per_query = static_cast<int64_t>(num_prompts) * dim;
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 15) / std::max<int64_t>(
                                                      work_per_query, 1));
    ParallelFor(0, num_queries, grain, [&](int64_t qfirst, int64_t qlast) {
      std::vector<std::pair<double, int>> scored(num_prompts);
      for (int64_t q = qfirst; q < qlast; ++q) {
        const float* qrow = qdata + static_cast<size_t>(q) * dim;
        for (int p = 0; p < num_prompts; ++p) {
          scored[p] = {score_pair(p, q, qrow), p};
        }
        // T(q) = the query's top-k prompts by score (Eq. 8); k is the
        // shot count, keeping each query's votes concentrated on its
        // genuinely closest candidates.
        std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                          [](const auto& a, const auto& b) {
                            return a.first > b.first;
                          });
        topk[q].assign(scored.begin(), scored.begin() + k);
      }
    });
    // 1_{p in T(q)} * score(p, q).
    for (int q = 0; q < num_queries; ++q) {
      for (const auto& [score, p] : topk[q]) {
        out.votes[p] += score;
        out.hit_counts[p] += 1;
      }
    }
  }

  // Keep the k most-voted candidates of every class, so the refined set
  // S-hat still covers all m classes with k shots each. Stable tie-break
  // on candidate index keeps the fallback (all-zero votes) deterministic.
  for (int cls = 0; cls < num_classes; ++cls) {
    std::vector<int> members;
    for (int p = 0; p < num_prompts; ++p) {
      if (prompt_labels[p] == cls) members.push_back(p);
    }
    std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
      const bool voted_a = out.hit_counts[a] > 0;
      const bool voted_b = out.hit_counts[b] > 0;
      if (voted_a != voted_b) return voted_a;
      return out.votes[a] > out.votes[b];
    });
    const int keep = std::min<int>(config.shots, members.size());
    for (int i = 0; i < keep; ++i) out.selected.push_back(members[i]);
  }
  return out;
}

const char* SelectorKindName(SelectorKind kind) {
  switch (kind) {
    case SelectorKind::kKnnVoting:
      return "knn-voting";
    case SelectorKind::kClustering:
      return "kmeans-clustering";
  }
  return "?";
}

KnnSelection SelectPromptsByClustering(
    const Tensor& prompt_embeddings, const Tensor& prompt_importance,
    const std::vector<int>& prompt_labels, const Tensor& query_embeddings,
    const Tensor& query_importance, int num_classes, const KnnConfig& config,
    Rng* rng) {
  const int num_prompts = prompt_embeddings.rows();
  const int num_queries = query_embeddings.rows();
  CHECK_EQ(static_cast<size_t>(num_prompts), prompt_labels.size());
  if (num_queries < config.shots ||
      (!config.use_similarity && !config.use_importance)) {
    return SelectPrompts(prompt_embeddings, prompt_importance, prompt_labels,
                         query_embeddings, query_importance, num_classes,
                         config);
  }

  KMeansConfig kmeans;
  kmeans.clusters = config.shots;
  const KMeansResult clusters = RunKMeans(query_embeddings, kmeans, rng);

  // Mean query importance stands in for I_q against a centroid.
  float mean_query_importance = 0.0f;
  if (config.use_importance && query_importance.defined()) {
    for (int q = 0; q < num_queries; ++q) {
      mean_query_importance += query_importance.at(q, 0);
    }
    mean_query_importance /= std::max(num_queries, 1);
  }

  KnnSelection out;
  out.votes.assign(num_prompts, 0.0);
  out.hit_counts.assign(num_prompts, 0);
  for (int cls = 0; cls < num_classes; ++cls) {
    std::vector<int> members;
    for (int p = 0; p < num_prompts; ++p) {
      if (prompt_labels[p] == cls) members.push_back(p);
    }
    std::vector<bool> taken(members.size(), false);
    const int keep = std::min<int>(config.shots, members.size());
    for (int c = 0; c < keep; ++c) {
      // Centroid c claims the best unclaimed class member.
      int best = -1;
      double best_score = 0.0;
      for (size_t mi = 0; mi < members.size(); ++mi) {
        if (taken[mi]) continue;
        const int p = members[mi];
        double score = 0.0;
        if (config.use_similarity) {
          score += EmbeddingSimilarity(prompt_embeddings, p,
                                       clusters.centroids, c, config.metric);
        }
        if (config.use_importance && prompt_importance.defined()) {
          score += static_cast<double>(prompt_importance.at(p, 0)) *
                   mean_query_importance;
        }
        if (best < 0 || score > best_score) {
          best = static_cast<int>(mi);
          best_score = score;
        }
      }
      if (best < 0) break;
      taken[best] = true;
      out.selected.push_back(members[best]);
      out.votes[members[best]] = best_score;
      out.hit_counts[members[best]] = 1;
    }
  }
  return out;
}

}  // namespace gp
