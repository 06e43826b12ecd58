#include "core/prompt_augmenter.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace gp {
namespace {

PromptAugmenterConfig SmallConfig(int capacity = 3) {
  PromptAugmenterConfig config;
  config.cache_capacity = capacity;
  return config;
}

Tensor QueryBatch(std::vector<std::vector<float>> rows) {
  const int cols = static_cast<int>(rows[0].size());
  Tensor t = Tensor::Zeros(static_cast<int>(rows.size()), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int c = 0; c < cols; ++c) {
      t.at(static_cast<int>(r), c) = rows[r][c];
    }
  }
  return t;
}

TEST(PromptAugmenterTest, StartsEmpty) {
  PromptAugmenter augmenter(SmallConfig(), 1);
  const auto cached = augmenter.GetCachedPrompts(2);
  EXPECT_EQ(cached.embeddings.rows(), 0);
  EXPECT_TRUE(cached.labels.empty());
}

TEST(PromptAugmenterTest, InsertsMostConfidentQuery) {
  PromptAugmenter augmenter(SmallConfig(), 2);
  Tensor batch = QueryBatch({{1, 0}, {0, 1}, {0.5, 0.5}});
  augmenter.ObserveQueries(batch, {0, 1, 0}, {0.5f, 0.9f, 0.6f},
                           /*max_inserts=*/1);
  const auto cached = augmenter.GetCachedPrompts(2);
  ASSERT_EQ(cached.embeddings.rows(), 1);
  EXPECT_EQ(cached.labels[0], 1);  // the 0.9-confidence query
  EXPECT_EQ(cached.embeddings.at(0, 1), 1.0f);
}

TEST(PromptAugmenterTest, RespectsMaxInserts) {
  PromptAugmenter augmenter(SmallConfig(10), 3);
  Tensor batch = QueryBatch({{1, 0}, {0, 1}, {1, 1}});
  augmenter.ObserveQueries(batch, {0, 1, 0}, {0.9f, 0.8f, 0.7f}, 2);
  EXPECT_EQ(augmenter.cache().size(), 2);
}

TEST(PromptAugmenterTest, ConfidenceGateBlocksLowConfidence) {
  auto config = SmallConfig();
  config.min_confidence = 0.8f;
  PromptAugmenter augmenter(config, 4);
  Tensor batch = QueryBatch({{1, 0}});
  augmenter.ObserveQueries(batch, {0}, {0.5f}, 1);
  EXPECT_TRUE(augmenter.cache().empty());
  augmenter.ObserveQueries(batch, {0}, {0.95f}, 1);
  EXPECT_EQ(augmenter.cache().size(), 1);
}

TEST(PromptAugmenterTest, CapacityBoundsCache) {
  PromptAugmenter augmenter(SmallConfig(3), 5);
  for (int i = 0; i < 10; ++i) {
    Tensor batch = QueryBatch({{static_cast<float>(i), 1}});
    augmenter.ObserveQueries(batch, {i % 2}, {0.9f}, 1);
  }
  EXPECT_EQ(augmenter.cache().size(), 3);
}

TEST(PromptAugmenterTest, SimilarEntriesGainFrequencyAndSurvive) {
  // One hit per query, so only the most similar entry gains frequency
  // (at the default of 3, every entry of this 2-entry cache would).
  auto config = SmallConfig(2);
  config.top_k_hits = 1;
  PromptAugmenter augmenter(config, 6);
  // Seed two cache entries at distinct poles.
  augmenter.ObserveQueries(QueryBatch({{1, 0}}), {0}, {0.9f}, 1);
  augmenter.ObserveQueries(QueryBatch({{0, 1}}), {1}, {0.9f}, 1);
  // Stream of queries near pole (1, 0): its entry keeps getting hit.
  for (int i = 0; i < 4; ++i) {
    augmenter.ObserveQueries(QueryBatch({{0.9f, 0.1f}}), {0}, {0.3f}, 0);
  }
  // Now insert new entries; the (0,1) entry has never been touched beyond
  // insertion, so it is evicted before the hot (1,0) one.
  augmenter.ObserveQueries(QueryBatch({{0.8f, 0.2f}}), {0}, {0.9f}, 1);
  const auto cached = augmenter.GetCachedPrompts(2);
  bool has_hot_pole = false;
  for (int r = 0; r < cached.embeddings.rows(); ++r) {
    if (cached.embeddings.at(r, 0) == 1.0f) has_hot_pole = true;
  }
  EXPECT_TRUE(has_hot_pole);
}

TEST(PromptAugmenterTest, RandomPseudoLabelModeStillInserts) {
  auto config = SmallConfig();
  config.random_pseudo_labels = true;
  config.min_confidence = 0.0f;  // random mode: no confidence gate
  PromptAugmenter augmenter(config, 7);
  Tensor batch = QueryBatch({{1, 0}, {0, 1}, {1, 1}, {0, 0}});
  augmenter.ObserveQueries(batch, {0, 1, 0, 1}, {0.9f, 0.1f, 0.5f, 0.3f}, 2);
  EXPECT_EQ(augmenter.cache().size(), 2);
}

TEST(PromptAugmenterTest, ResetClearsCache) {
  PromptAugmenter augmenter(SmallConfig(), 8);
  augmenter.ObserveQueries(QueryBatch({{1, 0}}), {0}, {0.9f}, 1);
  EXPECT_EQ(augmenter.cache().size(), 1);
  augmenter.Reset();
  EXPECT_TRUE(augmenter.cache().empty());
}

TEST(PromptAugmenterTest, CachedPromptsCarryPseudoLabels) {
  PromptAugmenter augmenter(SmallConfig(), 9);
  augmenter.ObserveQueries(QueryBatch({{1, 2}}), {3}, {0.9f}, 1);
  const auto cached = augmenter.GetCachedPrompts(2);
  ASSERT_EQ(cached.labels.size(), 1u);
  EXPECT_EQ(cached.labels[0], 3);
  EXPECT_EQ(cached.embeddings.at(0, 0), 1.0f);
  EXPECT_EQ(cached.embeddings.at(0, 1), 2.0f);
}

// ---- retrieval-index mirroring (core/prompt_index.h) --------------------

TEST(PromptAugmenterTest, IndexMirrorsCacheThroughInsertAndEviction) {
  auto config = SmallConfig(/*capacity=*/3);
  config.index.mode = IndexMode::kIvf;
  config.index.min_points = 1;  // shard as soon as geometry allows
  PromptAugmenter augmenter(config, 10);

  augmenter.ObserveQueries(QueryBatch({{1, 0}, {0, 1}, {1, 1}}),
                           {0, 1, 0}, {0.9f, 0.8f, 0.7f}, 3);
  EXPECT_EQ(augmenter.index().size(), augmenter.cache().size());

  // Two more inserts overflow capacity 3: the cache evicts victims it
  // never names, and the index must track the survivors exactly.
  augmenter.ObserveQueries(QueryBatch({{2, 0}, {0, 2}}), {0, 1},
                           {0.95f, 0.85f}, 2);
  EXPECT_EQ(augmenter.cache().size(), 3);
  EXPECT_EQ(augmenter.index().size(), 3);
  std::vector<int64_t> cached_ids;
  for (const auto& [id, entry] : augmenter.cache().Entries()) {
    cached_ids.push_back(id);
  }
  std::sort(cached_ids.begin(), cached_ids.end());
  EXPECT_EQ(augmenter.index().Ids(), cached_ids);
}

TEST(PromptAugmenterTest, DefaultIndexStaysExactAtPaperCacheSizes) {
  PromptAugmenter augmenter(SmallConfig(), 11);  // default auto index
  augmenter.ObserveQueries(QueryBatch({{1, 0}, {0, 1}, {1, 1}}),
                           {0, 1, 0}, {0.9f, 0.8f, 0.7f}, 3);
  // c = 3 (Fig. 5's optimum) is far below min_points: exact scan, no IVF.
  EXPECT_FALSE(augmenter.index().ivf());
}

TEST(PromptAugmenterTest, LargeCacheShardsAndStillTouchesEntries) {
  auto config = SmallConfig(/*capacity=*/256);
  config.index.mode = IndexMode::kIvf;
  config.index.min_points = 32;
  config.index.nlist = 4;
  PromptAugmenter augmenter(config, 12);

  // Fill with four well-separated clusters so sharding is meaningful.
  std::vector<std::vector<float>> rows;
  std::vector<int> labels;
  std::vector<float> conf;
  for (int i = 0; i < 128; ++i) {
    const int c = i % 4;
    const float cx = (c % 2 == 0) ? 10.0f : -10.0f;
    const float cy = (c / 2 == 0) ? 10.0f : -10.0f;
    rows.push_back({cx + 0.01f * static_cast<float>(i),
                    cy - 0.01f * static_cast<float>(i)});
    labels.push_back(c);
    conf.push_back(0.9f);
  }
  augmenter.ObserveQueries(QueryBatch(rows), labels, conf, 128);
  EXPECT_EQ(augmenter.cache().size(), 128);
  EXPECT_EQ(augmenter.index().size(), 128);
  EXPECT_TRUE(augmenter.index().ivf());

  // A follow-up batch must still bump frequencies through the narrowed
  // (probed) scan without touching every entry.
  augmenter.ObserveQueries(QueryBatch({{10, 10}}), {0}, {0.0f}, 0);
  EXPECT_EQ(augmenter.index().size(), augmenter.cache().size());
}

TEST(PromptAugmenterTest, EvictPoisonedAlsoErasesFromIndex) {
  auto config = SmallConfig(/*capacity=*/4);
  PromptAugmenter augmenter(config, 13);
  augmenter.ObserveQueries(QueryBatch({{1, 0}, {0, 1}}), {0, 1},
                           {0.9f, 0.8f}, 2);
  ASSERT_EQ(augmenter.index().size(), 2);
  // Poison one entry out-of-band, the way fault injection does.
  const auto entries = augmenter.cache().Entries();
  augmenter.mutable_cache().MutableEntry(entries[0].first)->pseudo_label = 99;
  EXPECT_EQ(augmenter.EvictPoisoned(/*dim=*/2, /*num_classes=*/2), 1);
  EXPECT_EQ(augmenter.index().size(), 1);
  EXPECT_EQ(augmenter.cache().size(), 1);
}

TEST(PromptAugmenterTest, ResetAndRebuildKeepIndexInSync) {
  PromptAugmenter augmenter(SmallConfig(), 14);
  augmenter.ObserveQueries(QueryBatch({{1, 0}, {0, 1}}), {0, 1},
                           {0.9f, 0.8f}, 2);
  EXPECT_EQ(augmenter.index().size(), 2);
  augmenter.Reset();
  EXPECT_TRUE(augmenter.cache().empty());
  EXPECT_EQ(augmenter.index().size(), 0);

  augmenter.ObserveQueries(QueryBatch({{1, 1}}), {0}, {0.9f}, 1);
  // Out-of-band cache surgery desyncs the index; RebuildIndex re-derives.
  augmenter.mutable_cache().Clear();
  augmenter.RebuildIndex();
  EXPECT_EQ(augmenter.index().size(), 0);
}

}  // namespace
}  // namespace gp
