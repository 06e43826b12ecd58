// Stage 3 — Prompt Augmenter (Sec. IV-C).
//
// Test-time adaptation: the most confident predicted queries are inserted
// into an LFU cache as pseudo-labelled prompts; cached entries join the
// refined prompt set for subsequent queries (Eq. 9, S-hat' = S-hat ∪ C).
// A cache entry's LFU frequency is bumped whenever it lands in a query's
// top-k similarity set, exploiting the spatial locality of graph sampling.

#ifndef GRAPHPROMPTER_CORE_PROMPT_AUGMENTER_H_
#define GRAPHPROMPTER_CORE_PROMPT_AUGMENTER_H_

#include <cstdint>
#include <vector>

#include "core/cache_policy.h"
#include "core/knn_retrieval.h"
#include "core/lfu_cache.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace gp {

struct PromptAugmenterConfig {
  int cache_capacity = 3;  // c — Fig. 5 finds c = 3 optimal
  // Replacement policy; the paper uses LFU, LRU/FIFO are the pluggable
  // alternatives from its Further Discussion.
  CachePolicy policy = CachePolicy::kLfu;
  int top_k_hits = 3;      // similarity hits that bump LFU frequency
  DistanceMetric metric = DistanceMetric::kCosine;
  // Table VII robustness variant: insert random queries instead of the
  // most confident ones.
  bool random_pseudo_labels = false;
  // Minimum softmax confidence required to cache a pseudo-label
  // ("the most confidence probability", Sec. IV-C). The evaluation loop
  // raises this to a ways-relative gate (1.5/m) for confident insertion,
  // keeping low-quality pseudo-labels out in hard many-way episodes.
  float min_confidence = 0.0f;
};

// Stateful online augmenter. One instance per evaluation episode.
class PromptAugmenter {
 public:
  PromptAugmenter(const PromptAugmenterConfig& config, uint64_t seed);

  // The cached online prompts, as (C x d) embeddings plus pseudo-labels.
  // `dim` is needed to shape an empty result.
  struct CachedPrompts {
    Tensor embeddings;        // (C x d); 0 rows when the cache is empty
    std::vector<int> labels;  // pseudo-labels, episode-local
  };
  CachedPrompts GetCachedPrompts(int dim) const;

  // Feeds back one predicted batch: bumps LFU frequencies of cache entries
  // similar to the queries, then inserts up to `max_inserts` (<= m, the
  // paper's |Q-hat| <= m) pseudo-labelled queries. A query with a
  // non-finite embedding or confidence is never cached (Eq. 9's S-hat'
  // must stay clean): it is rejected and counted in health().
  void ObserveQueries(const Tensor& query_embeddings,
                      const std::vector<int>& predicted_labels,
                      const std::vector<float>& confidences, int max_inserts);

  // Scans the cache and evicts entries that are poisoned — non-finite
  // embedding values, a wrong embedding width, or a pseudo-label outside
  // [0, num_classes). Returns the number of entries evicted. Cheap
  // (capacity is small: Fig. 5 peaks at c = 3) and safe to call per batch.
  int EvictPoisoned(int dim, int num_classes);

  // Checks that every cached entry is usable for a (dim)-wide prompt set
  // with labels in [0, num_classes). kFailedPrecondition when the cache is
  // unhealthy; the caller then skips the augmenter stage for the episode
  // instead of crashing in GetCachedPrompts.
  Status ValidateCache(int dim, int num_classes) const;

  // Degradation counters for the augmenter stage.
  struct Health {
    int64_t rejected_nonfinite = 0;       // inserts refused: bad values
    int64_t rejected_low_confidence = 0;  // inserts refused: below gate
    int64_t evicted_poisoned = 0;         // entries removed by EvictPoisoned
  };
  const Health& health() const { return health_; }

  const PromptAugmenterConfig& config() const { return config_; }

  const ReplacementCache& cache() const { return *cache_; }
  // Mutable cache access: the fault-injection path poisons entries through
  // this to exercise EvictPoisoned/ValidateCache.
  ReplacementCache& mutable_cache() { return *cache_; }
  void Reset() { cache_->Clear(); }

 private:
  PromptAugmenterConfig config_;
  std::unique_ptr<ReplacementCache> cache_;
  Rng rng_;
  Health health_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_CORE_PROMPT_AUGMENTER_H_
