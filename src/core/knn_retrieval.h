// Stage 2b — kNN retrieval and query voting (Sec. IV-B2, Eqs. 6-8).
//
// For each query q and candidate prompt p:
//     score(p, q) = sim(G_p, G_q) + I_p * I_q                     (Eq. 7)
// where sim defaults to cosine similarity (Eq. 6; Euclidean and Manhattan
// are supported as the paper notes they are drop-in substitutes). Each
// query votes score(p, q) for its top-k prompts (Eq. 8); the k prompts per
// class with the most votes form the refined prompt set S-hat.

#ifndef GRAPHPROMPTER_CORE_KNN_RETRIEVAL_H_
#define GRAPHPROMPTER_CORE_KNN_RETRIEVAL_H_

#include <vector>

#include "core/distance.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace gp {

struct KnnConfig {
  int shots = 3;  // k — prompts kept per class
  DistanceMetric metric = DistanceMetric::kCosine;
  bool use_similarity = true;   // Eq. 7 sim term   (ablation "w/o kNN")
  bool use_importance = true;   // Eq. 7 I_p*I_q    (ablation "w/o selection")
};

struct KnnSelection {
  // Indices into the candidate array, grouped per class: k per class.
  std::vector<int> selected;
  // Vote totals per candidate (Eq. 8), for inspection.
  std::vector<double> votes;
  // How many queries placed the candidate in their top-k set; candidates
  // with zero hits always rank below voted ones (scores may be negative
  // under distance metrics, where "no votes" must not look like a high
  // vote total of zero).
  std::vector<int> hit_counts;
};

// Selects prompts.
//   prompt_embeddings: (P x d) candidate data-graph embeddings.
//   prompt_importance: (P x 1) I_p — may be undefined if unused.
//   prompt_labels:     episode-local class of each candidate.
//   query_embeddings:  (Q x d), query_importance: (Q x 1).
// When both score terms are disabled the caller should fall back to random
// selection (Prodigy behaviour) — this function then selects the first k
// per class deterministically.
KnnSelection SelectPrompts(const Tensor& prompt_embeddings,
                           const Tensor& prompt_importance,
                           const std::vector<int>& prompt_labels,
                           const Tensor& query_embeddings,
                           const Tensor& query_importance, int num_classes,
                           const KnnConfig& config);

// How the Prompt Selector retrieves prompts at inference. kKnnVoting is
// the paper's method (Eqs. 6-8); kClustering is the Further-Discussion
// alternative that clusters the queries with k-means and picks, per class,
// the candidates best matching each cluster centroid.
enum class SelectorKind { kKnnVoting, kClustering };

const char* SelectorKindName(SelectorKind kind);

// Clustering-based selection: queries are grouped into `config.shots`
// k-means clusters; for every class, each centroid claims the unclaimed
// class candidate with the highest Eq. 7 score against it. Falls back to
// kNN voting when there are fewer queries than clusters.
KnnSelection SelectPromptsByClustering(const Tensor& prompt_embeddings,
                                       const Tensor& prompt_importance,
                                       const std::vector<int>& prompt_labels,
                                       const Tensor& query_embeddings,
                                       const Tensor& query_importance,
                                       int num_classes,
                                       const KnnConfig& config, Rng* rng);

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_KNN_RETRIEVAL_H_
