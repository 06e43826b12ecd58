#include "core/prompt_augmenter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/distance.h"
#include "obs/telemetry.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gp {

namespace {

// Raw-pointer similarity between a query row and a cache entry, with the
// query's cosine norm hoisted out of the per-entry loop. Delegates to the
// shared core/distance.h kernels (SIMD-dispatched) so the cache scan and
// the retrieval pipeline share one accumulation order and one degenerate-
// norm rule (CosineFromParts' relative guard).
float EntrySimilarity(const float* qe, double query_norm,
                      const std::vector<float>& entry, DistanceMetric metric) {
  const int n = static_cast<int>(entry.size());
  switch (metric) {
    case DistanceMetric::kCosine:
      return CosineFromParts(DotRaw(qe, entry.data(), n), query_norm,
                             std::sqrt(SquaredNormRaw(entry.data(), n)));
    case DistanceMetric::kEuclidean:
      return NegEuclideanRaw(qe, entry.data(), n);
    case DistanceMetric::kManhattan:
      return NegManhattanRaw(qe, entry.data(), n);
  }
  return 0.0f;
}

}  // namespace

PromptAugmenter::PromptAugmenter(const PromptAugmenterConfig& config,
                                 uint64_t seed)
    : config_(config),
      cache_(MakeCache(config.policy, config.cache_capacity)),
      rng_(seed) {}

PromptAugmenter::CachedPrompts PromptAugmenter::GetCachedPrompts(
    int dim) const {
  CachedPrompts out;
  const auto entries = cache_->Entries();
  out.embeddings = Tensor::Zeros(static_cast<int>(entries.size()), dim);
  float* dst = out.embeddings.mutable_data().data();
  for (size_t i = 0; i < entries.size(); ++i) {
    const CacheEntry& entry = *entries[i].second;
    CHECK_EQ(static_cast<int>(entry.embedding.size()), dim);
    std::copy_n(entry.embedding.data(), dim, dst + i * dim);
    out.labels.push_back(entry.pseudo_label);
  }
  return out;
}

void PromptAugmenter::ObserveQueries(const Tensor& query_embeddings,
                                     const std::vector<int>& predicted_labels,
                                     const std::vector<float>& confidences,
                                     int max_inserts) {
  const int num_queries = query_embeddings.rows();
  CHECK_EQ(static_cast<size_t>(num_queries), predicted_labels.size());
  CHECK_EQ(static_cast<size_t>(num_queries), confidences.size());

  // 1. LFU frequency update: each query "hits" its top-k most similar
  //    cache entries. The per-entry similarity scan runs in parallel
  //    (disjoint writes into `sims`); Touch stays serial in entry order.
  static Counter* hits = Telemetry().GetCounter("augmenter/cache_hits");
  static Counter* misses = Telemetry().GetCounter("augmenter/cache_misses");

  const auto entries = cache_->Entries();
  if (entries.empty()) {
    // Nothing cached yet: every query of this batch is a miss.
    misses->Add(num_queries);
  } else {
    const int dim = query_embeddings.cols();
    const float* qdata = query_embeddings.data().data();
    const int num_entries = static_cast<int>(entries.size());
    static Counter* scan_pairs =
        Telemetry().GetCounter("augmenter/scan_pairs");
    scan_pairs->Add(static_cast<int64_t>(num_entries) * num_queries);
    const int k = std::min(config_.top_k_hits, num_entries);
    hits->Add(static_cast<int64_t>(k) * num_queries);
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 14) / std::max(dim, 1));
    std::vector<std::pair<float, int64_t>> sims(num_entries);
    for (int q = 0; q < num_queries; ++q) {
      const float* qe = qdata + static_cast<size_t>(q) * dim;
      double query_norm = 0.0;
      if (config_.metric == DistanceMetric::kCosine) {
        query_norm = std::sqrt(SquaredNormRaw(qe, dim));
      }
      ParallelFor(0, num_entries, grain,
                  [&](int64_t first, int64_t last) {
                    for (int64_t e = first; e < last; ++e) {
                      float sim = EntrySimilarity(
                          qe, query_norm, entries[e].second->embedding,
                          config_.metric);
                      // A NaN similarity (poisoned entry or query) would
                      // break the partial_sort's ordering; rank it last.
                      if (!std::isfinite(sim)) {
                        sim = -std::numeric_limits<float>::infinity();
                      }
                      sims[e] = {sim, entries[e].first};
                    }
                  });
      std::partial_sort(
          sims.begin(), sims.begin() + k, sims.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      for (int i = 0; i < k; ++i) cache_->Touch(sims[i].second);
    }
  }

  // 2. Insert pseudo-labelled queries: the most confident ones (paper's
  //    default) or random ones (Table VII robustness check).
  std::vector<int> order(num_queries);
  for (int i = 0; i < num_queries; ++i) order[i] = i;
  if (config_.random_pseudo_labels) {
    rng_.Shuffle(&order);
  } else {
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return confidences[a] > confidences[b];
    });
  }
  const int inserts = std::min(max_inserts, num_queries);
  for (int i = 0; i < inserts; ++i) {
    const int q = order[i];
    // Insert validation: a pseudo-prompt with non-finite values would be
    // retrieved for every later query of the episode, turning one bad
    // prediction into a poisoned cache. Reject it here and count the event.
    if (!std::isfinite(confidences[q]) || predicted_labels[q] < 0 ||
        !query_embeddings.RowFinite(q)) {
      ++health_.rejected_nonfinite;
      static Counter* c =
          Telemetry().GetCounter("augmenter/rejected_nonfinite");
      c->Add(1);
      continue;
    }
    if (confidences[q] < config_.min_confidence) {
      ++health_.rejected_low_confidence;
      static Counter* c =
          Telemetry().GetCounter("augmenter/rejected_low_confidence");
      c->Add(1);
      continue;
    }
    CacheEntry entry;
    entry.embedding = query_embeddings.Row(q);
    entry.pseudo_label = predicted_labels[q];
    entry.confidence = confidences[q];
    const bool at_capacity =
        cache_->capacity() > 0 && cache_->size() == cache_->capacity();
    if (cache_->Insert(std::move(entry)) >= 0) {
      static Counter* inserted = Telemetry().GetCounter("augmenter/inserts");
      inserted->Add(1);
      if (at_capacity) {
        static Counter* evictions =
            Telemetry().GetCounter("augmenter/evictions");
        evictions->Add(1);
      }
    }
  }
}

namespace {

bool EntryPoisoned(const CacheEntry& entry, int dim, int num_classes) {
  if (static_cast<int>(entry.embedding.size()) != dim) return true;
  if (entry.pseudo_label < 0 || entry.pseudo_label >= num_classes) {
    return true;
  }
  if (!std::isfinite(entry.confidence)) return true;
  for (float v : entry.embedding) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace

int PromptAugmenter::EvictPoisoned(int dim, int num_classes) {
  int evicted = 0;
  for (const auto& [id, entry] : cache_->Entries()) {
    if (EntryPoisoned(*entry, dim, num_classes)) {
      cache_->Erase(id);
      ++evicted;
    }
  }
  if (evicted > 0) {
    health_.evicted_poisoned += evicted;
    static Counter* c = Telemetry().GetCounter("augmenter/poison_evictions");
    c->Add(evicted);
    LOG(WARNING) << "prompt augmenter: evicted " << evicted
                 << " poisoned cache entr" << (evicted == 1 ? "y" : "ies");
  }
  return evicted;
}

Status PromptAugmenter::ValidateCache(int dim, int num_classes) const {
  for (const auto& [id, entry] : cache_->Entries()) {
    if (EntryPoisoned(*entry, dim, num_classes)) {
      return FailedPreconditionError(
          "prompt cache entry " + std::to_string(id) +
          " is poisoned (dim=" +
          std::to_string(entry->embedding.size()) + ", label=" +
          std::to_string(entry->pseudo_label) + ")");
    }
  }
  return Status::Ok();
}

}  // namespace gp
