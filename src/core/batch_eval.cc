#include "core/batch_eval.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace gp {
namespace {

// Row-wise max softmax probability of `scores` — prediction confidence.
// Rows are independent, so the batch splits into parallel chunks with
// disjoint writes; chunking is fixed, so results match a serial run.
std::vector<float> SoftmaxConfidence(const Tensor& scores) {
  const int rows = scores.rows();
  const int cols = scores.cols();
  std::vector<float> out(rows);
  const float* data = scores.data().data();
  const int64_t grain =
      std::max<int64_t>(1, (int64_t{1} << 13) / std::max(cols, 1));
  ParallelFor(0, rows, grain, [&](int64_t first, int64_t last) {
    for (int r = static_cast<int>(first); r < last; ++r) {
      const float* row = data + static_cast<size_t>(r) * cols;
      float mx = row[0];
      for (int c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
      float total = 0.0f, best = 0.0f;
      for (int c = 0; c < cols; ++c) {
        const float e = std::exp(row[c] - mx);
        total += e;
        best = std::max(best, e);
      }
      out[r] = best / total;
    }
  });
  return out;
}

// Indices of rows containing any non-finite value. A read-only scan: on a
// clean run it finds nothing and the evaluation is byte-for-byte the
// unvalidated one.
std::vector<int> NonFiniteRows(const Tensor& t) {
  std::vector<int> bad;
  for (int r = 0; r < t.rows(); ++r) {
    if (!t.RowFinite(r)) bad.push_back(r);
  }
  return bad;
}

// Zeroes the given rows in place (query sanitization: a query must still be
// predicted, so it degrades to the origin instead of being dropped).
void ZeroRows(Tensor* t, const std::vector<int>& rows) {
  float* data = t->mutable_data().data();
  const int cols = t->cols();
  for (int r : rows) {
    std::fill_n(data + static_cast<size_t>(r) * cols, cols, 0.0f);
  }
}

// Prodigy-style selection: `shots` random candidates per class. Shared by
// the random_prompt_selection config and the last rung of the degradation
// ladder.
std::vector<int> RandomSelection(const std::vector<int>& candidate_labels,
                                 int ways, int shots, Rng* rng) {
  std::vector<int> selected;
  for (int cls = 0; cls < ways; ++cls) {
    std::vector<int> members;
    for (size_t p = 0; p < candidate_labels.size(); ++p) {
      if (candidate_labels[p] == cls) {
        members.push_back(static_cast<int>(p));
      }
    }
    rng->Shuffle(&members);
    const int keep = std::min<int>(shots, members.size());
    for (int i = 0; i < keep; ++i) selected.push_back(members[i]);
  }
  return selected;
}

// How far Prepare took a (request, trial) unit. FinishRequest consumes a
// request's units in trial order and stops at the first one that is not
// kReady; units after a cut are never read.
enum class UnitPhase {
  kCut,              // never sampled, or the deadline fired before selection
  kSampled,          // stage 1 done, stage 2 pending
  kCutAfterSelect,   // the deadline fired after selection, before stage 3
  kReady,            // stages 1-2 done, stage 3 pending
};

}  // namespace

struct BatchEvaluation::RequestState {
  // One trial of the request.
  struct Unit {
    Rng rng{0};
    UnitPhase phase = UnitPhase::kCut;
    int ways = 0;
    std::vector<int> candidate_labels, query_labels;
    Tensor candidate_emb, query_emb;
    bool candidates_degenerate = false;
    Tensor candidate_importance, query_importance;
    Tensor prompt_emb;
    std::vector<int> prompt_labels;
    // Stage-2 degradation, merged into the request's result only when
    // FinishRequest reaches the unit.
    DegradationStats stage2_stats;
  };

  Stopwatch timer;  // per-request deadline clock, started at construction
  std::vector<Unit> units;
  bool stopped = false;  // the deadline cut the request during stage 1
  double embed_query_seconds = 0.0;  // packed-encode share of its queries
  bool finished = false;

  bool PastDeadline(int64_t deadline_us) const {
    return deadline_us > 0 && timer.ElapsedMicros() >= deadline_us;
  }
};

BatchEvaluation::BatchEvaluation(const GraphPrompterModel& model,
                                 const DatasetBundle& dataset,
                                 std::vector<EvalConfig> configs)
    : model_(model), dataset_(dataset), configs_(std::move(configs)) {
  CHECK_EQ(model_.config().feature_dim, dataset_.graph.feature_dim());
  requests_.reserve(configs_.size());
  for (size_t i = 0; i < configs_.size(); ++i) {
    requests_.push_back(std::make_unique<RequestState>());
  }
}

BatchEvaluation::~BatchEvaluation() = default;

void BatchEvaluation::Prepare() {
  CHECK(!prepared_);
  prepared_ = true;
  if (configs_.empty()) return;
  GP_TRACE_SPAN("eval/batch_prepare");
  PoolScope pool_scope;
  NoGradGuard no_grad;
  const GraphPrompterConfig& mc = model_.config();
  FaultInjector* const injector = ActiveFaultInjector();

  // Fork every trial RNG upfront, in request then trial order. Each
  // request's master RNG is used for nothing else, and every later draw of
  // a trial stays on its own stream, so no draw ever crosses requests.
  size_t max_trials = 0;
  for (size_t r = 0; r < configs_.size(); ++r) {
    Rng master(configs_[r].seed);
    auto& units = requests_[r]->units;
    units.resize(std::max(0, configs_[r].trials));
    for (auto& unit : units) unit.rng = master.Fork();
    max_trials = std::max(max_trials, units.size());
  }

  // ---- Stage 1, one pass per trial index: sample that trial of every
  // request (episode, then one subgraph per candidate, then one per
  // query), then ONE packed disjoint-union encode over all of them. Every
  // output row is independent of its union-mates (per-node/per-segment
  // aggregation in emission order), so each slice is bitwise what a
  // standalone encode of that unit's subgraphs would give. Packing per
  // trial index, not per request, keeps a multi-trial request's peak
  // memory at one trial's union.
  const EpisodeSampler sampler(&dataset_);
  for (size_t t = 0; t < max_trials; ++t) {
    struct Packed {
      int request;
      RequestState::Unit* unit;
      int first_subgraph;
    };
    std::vector<Packed> packed;
    std::vector<Subgraph> subgraphs;
    for (size_t r = 0; r < configs_.size(); ++r) {
      const EvalConfig& cfg = configs_[r];
      RequestState& req = *requests_[r];
      if (t >= req.units.size() || req.stopped) continue;
      if (req.PastDeadline(cfg.deadline_us)) {
        req.stopped = true;
        continue;
      }
      RequestState::Unit& unit = req.units[t];
      GP_TRACE_SPAN("eval/prepare_trial");
      EpisodeConfig episode;
      episode.ways = cfg.ways;
      episode.candidates_per_class = cfg.candidates_per_class;
      episode.num_queries = cfg.num_queries;
      episode.queries_from_test = true;
      auto task = sampler.Sample(episode, &unit.rng);
      CHECK_OK(task.status());
      unit.ways = task->ways();
      packed.push_back({static_cast<int>(r), &unit,
                        static_cast<int>(subgraphs.size())});
      {
        GP_TRACE_SPAN("generator/sample");
        for (const auto& ex : task->candidates) {
          unit.candidate_labels.push_back(ex.label);
          subgraphs.push_back(
              model_.generator().SampleForItem(dataset_, ex.item, &unit.rng));
        }
        for (const auto& ex : task->queries) {
          unit.query_labels.push_back(ex.label);
          subgraphs.push_back(
              model_.generator().SampleForItem(dataset_, ex.item, &unit.rng));
        }
      }
      unit.phase = UnitPhase::kSampled;
    }
    if (subgraphs.empty()) continue;

    Tensor all_emb;
    Stopwatch embed_timer;
    {
      GP_TRACE_SPAN("eval/batch_embed");
      all_emb = model_.generator().EmbedSubgraphs(
          GraphAdapter(dataset_.graph), subgraphs);
    }
    // ms_per_query attribution (wall-clock, outside the bitwise contract):
    // the packed encode's cost is split by subgraph count.
    const double per_subgraph_seconds =
        embed_timer.ElapsedSeconds() / subgraphs.size();
    for (const Packed& p : packed) {
      RequestState::Unit& unit = *p.unit;
      const int nc = static_cast<int>(unit.candidate_labels.size());
      const int nq = static_cast<int>(unit.query_labels.size());
      unit.candidate_emb = SliceRows(all_emb, p.first_subgraph, nc);
      unit.query_emb = SliceRows(all_emb, p.first_subgraph + nc, nq);
      requests_[p.request]->embed_query_seconds += per_subgraph_seconds * nq;
      if (injector != nullptr) {
        injector->CorruptRows(&unit.candidate_emb.mutable_data(), nc,
                              unit.candidate_emb.cols());
        injector->CorruptRows(&unit.query_emb.mutable_data(), nq,
                              unit.query_emb.cols());
      }
    }
  }

  // ---- Stage 2a: quarantine / sanitize per unit, then one stacked
  // selection-layer importance pass over every surviving unit.
  struct ActiveUnit {
    int request = 0;
    RequestState::Unit* unit = nullptr;
  };
  std::vector<ActiveUnit> active;
  for (size_t r = 0; r < configs_.size(); ++r) {
    const EvalConfig& cfg = configs_[r];
    RequestState& req = *requests_[r];
    for (size_t t = 0; t < req.units.size(); ++t) {
      RequestState::Unit& unit = req.units[t];
      if (unit.phase != UnitPhase::kSampled) break;
      if (req.PastDeadline(cfg.deadline_us)) {
        unit.phase = UnitPhase::kCut;
        break;
      }

      // Quarantine: a candidate with a non-finite embedding would poison
      // every similarity and importance it touches, so it is removed from
      // the candidate pool. If *every* row is damaged there is nothing left
      // to select from — sanitize to zeros and fall through to the random
      // rung of the ladder instead of returning an empty prompt set.
      std::vector<int>& candidate_labels = unit.candidate_labels;
      Tensor& candidate_emb = unit.candidate_emb;
      if (const std::vector<int> bad = NonFiniteRows(candidate_emb);
          !bad.empty()) {
        if (bad.size() == static_cast<size_t>(candidate_emb.rows())) {
          ZeroRows(&candidate_emb, bad);
          unit.candidates_degenerate = true;
        } else {
          std::vector<int> keep, kept_labels;
          size_t next_bad = 0;
          for (int row = 0; row < candidate_emb.rows(); ++row) {
            if (next_bad < bad.size() && bad[next_bad] == row) {
              ++next_bad;
              continue;
            }
            keep.push_back(row);
            kept_labels.push_back(candidate_labels[row]);
          }
          candidate_emb = GatherRows(candidate_emb, keep);
          candidate_labels = std::move(kept_labels);
        }
        unit.stage2_stats.quarantined_prompts += bad.size();
        LOG(WARNING) << "request " << r << " trial " << t << ": quarantined "
                     << bad.size()
                     << " candidate embedding rows with non-finite values";
      }
      // Unlike candidates, a damaged query cannot be dropped — it still
      // needs a prediction. Sanitize the row to zeros; the task graph then
      // scores it from label-prototype structure alone.
      if (const std::vector<int> bad = NonFiniteRows(unit.query_emb);
          !bad.empty()) {
        ZeroRows(&unit.query_emb, bad);
        unit.stage2_stats.sanitized_queries += bad.size();
        LOG(WARNING) << "request " << r << " trial " << t << ": sanitized "
                     << bad.size()
                     << " query embedding rows with non-finite values";
      }
      active.push_back({static_cast<int>(r), &unit});
    }
  }

  if (mc.use_selection_layer && !active.empty()) {
    // I_p (Eq. 5) for every active unit's candidates and queries. The
    // selection MLP is row-independent, so each slice is bitwise equal to
    // a per-unit Importance call.
    GP_TRACE_SPAN("eval/batch_importance");
    std::vector<Tensor> blocks;
    blocks.reserve(active.size() * 2);
    for (const ActiveUnit& a : active) {
      blocks.push_back(a.unit->candidate_emb);
      blocks.push_back(a.unit->query_emb);
    }
    const Tensor stacked_importance =
        model_.selection().Importance(ConcatRows(blocks));
    int row = 0;
    for (const ActiveUnit& a : active) {
      const int nc = a.unit->candidate_emb.rows();
      const int nq = a.unit->query_emb.rows();
      a.unit->candidate_importance = SliceRows(stacked_importance, row, nc);
      row += nc;
      a.unit->query_importance = SliceRows(stacked_importance, row, nq);
      row += nq;
    }
  }

  // ---- Stage 2b: per unit, prompt selection -> S-hat (k per class) with
  // the degradation ladder kNN -> selection-layer-only -> random, then
  // prompt-set hygiene and the gather. Health checks are read-only; on a
  // clean run the selector sees exactly the configured combination of
  // terms.
  int cut_request = -1;  // active is in request order; skip a cut's tail
  for (const ActiveUnit& a : active) {
    if (a.request == cut_request) continue;
    RequestState& req = *requests_[a.request];
    RequestState::Unit& unit = *a.unit;
    const EvalConfig& cfg = configs_[a.request];
    const int ways = unit.ways;
    const bool imp_healthy = mc.use_selection_layer &&
                             unit.candidate_importance.AllFinite() &&
                             unit.query_importance.AllFinite();
    const bool sim_healthy = mc.use_knn && !unit.candidates_degenerate;
    std::vector<int> selected;
    if (mc.random_prompt_selection ||
        (!mc.use_knn && !mc.use_selection_layer)) {
      // Prodigy behaviour: k random candidates per class.
      selected = RandomSelection(unit.candidate_labels, ways, cfg.shots,
                                 &unit.rng);
    } else if (!sim_healthy && !imp_healthy) {
      // Bottom rung: neither the similarity nor the importance term can be
      // trusted; a random per-class pick still yields a usable prompt set.
      selected = RandomSelection(unit.candidate_labels, ways, cfg.shots,
                                 &unit.rng);
      ++unit.stage2_stats.selector_random;
      LOG(WARNING) << "request " << a.request
                   << ": prompt selector degraded to random selection";
    } else {
      KnnConfig knn;
      knn.shots = cfg.shots;
      knn.metric = mc.metric;
      knn.use_similarity = mc.use_knn && sim_healthy;
      knn.use_importance = mc.use_selection_layer && imp_healthy;
      if (mc.use_selection_layer && !knn.use_importance) {
        ++unit.stage2_stats.selector_knn_only;
        LOG(WARNING) << "request " << a.request
                     << ": non-finite importance, selector degraded to "
                        "kNN-only scoring";
      }
      if (mc.use_knn && !knn.use_similarity) {
        ++unit.stage2_stats.selector_selection_only;
        LOG(WARNING) << "request " << a.request
                     << ": similarity unusable, selector degraded to "
                        "selection-layer-only scoring";
      }
      selected =
          mc.selector == SelectorKind::kClustering
              ? SelectPromptsByClustering(
                    unit.candidate_emb, unit.candidate_importance,
                    unit.candidate_labels, unit.query_emb,
                    unit.query_importance, ways, knn, &unit.rng)
                    .selected
              : SelectPrompts(unit.candidate_emb, unit.candidate_importance,
                              unit.candidate_labels, unit.query_emb,
                              unit.query_importance, ways, knn)
                    .selected;
    }

    // Prompt-set hygiene after optional fault injection: drop duplicate
    // ids (a duplicated prompt would double-weight its class prototype)
    // and account for classes that lost every prompt. SegmentMeanRows
    // tolerates an empty class (prototype = label embedding only), so a
    // missing class degrades accuracy but cannot produce NaN.
    if (injector != nullptr) injector->MutatePromptSet(&selected);
    {
      std::vector<char> seen_prompt(unit.candidate_labels.size(), 0);
      std::vector<int> unique;
      for (int p : selected) {
        if (p >= 0 && p < static_cast<int>(unit.candidate_labels.size()) &&
            !seen_prompt[p]) {
          seen_prompt[p] = 1;
          unique.push_back(p);
        }
      }
      if (unique.size() != selected.size()) {
        unit.stage2_stats.deduped_prompts += selected.size() - unique.size();
        selected = std::move(unique);
      }
      std::vector<char> class_covered(ways, 0);
      for (int p : selected) class_covered[unit.candidate_labels[p]] = 1;
      for (int cls = 0; cls < ways; ++cls) {
        if (!class_covered[cls]) ++unit.stage2_stats.missing_class_prompts;
      }
    }

    // Refined prompt set S-hat. Note: the importance-weighted embeddings
    // G'_p = G_p * I_p are a *pretraining* input (Sec. IV-C: "S_I in
    // pretraining or S-hat' in testing"); at test time the selected
    // prompts enter the task graph unscaled, with I_p contributing only
    // to the selection score (Eq. 7).
    unit.prompt_emb = GatherRows(unit.candidate_emb, selected);
    for (int p : selected) {
      unit.prompt_labels.push_back(unit.candidate_labels[p]);
    }
    if (req.PastDeadline(cfg.deadline_us)) {
      unit.phase = UnitPhase::kCutAfterSelect;
      cut_request = a.request;
      continue;
    }
    unit.phase = UnitPhase::kReady;
  }
}

EvalResult BatchEvaluation::FinishRequest(int i,
                                          const BatchStage3Options& options) {
  CHECK(prepared_);
  CHECK_GE(i, 0);
  CHECK_LT(i, size());
  RequestState& req = *requests_[i];
  CHECK(!req.finished);
  req.finished = true;
  const EvalConfig& cfg = configs_[i];

  GP_TRACE_SPAN("eval/batch_finish");
  PoolScope pool_scope;
  NoGradGuard no_grad;
  const GraphPrompterConfig& mc = model_.config();
  static Counter* trials_done = Telemetry().GetCounter("eval/trials");
  static Counter* queries_done = Telemetry().GetCounter("eval/queries");

  EvalResult result;
  double total_query_seconds = req.embed_query_seconds;
  int64_t total_queries = 0;

  for (size_t t = 0; t < req.units.size(); ++t) {
    RequestState::Unit& unit = req.units[t];
    // The deadline clock keeps running between Prepare and FinishRequest.
    if (req.PastDeadline(cfg.deadline_us) || unit.phase == UnitPhase::kCut) {
      result.deadline_expired = true;
      break;
    }
    GP_TRACE_SPAN("eval/trial");
    trials_done->Add(1);
    result.degradation.Merge(unit.stage2_stats);
    if (unit.phase == UnitPhase::kCutAfterSelect) {
      result.deadline_expired = true;
      break;
    }
    CHECK(unit.phase == UnitPhase::kReady);

    // ---- Stage 3 + prediction: stream query batches through the task
    // graph with optional cache augmentation (Algorithm 2 lines 9-14).
    Rng& trial_rng = unit.rng;
    const int ways = unit.ways;
    PromptAugmenterConfig augmenter_config = mc.augmenter;
    if (!augmenter_config.random_pseudo_labels) {
      // Confidence gate relative to chance (1/ways): only predictions at
      // least 1.5x more confident than chance become pseudo-prompts.
      augmenter_config.min_confidence = std::max(
          augmenter_config.min_confidence, 1.5f / static_cast<float>(ways));
    }
    // A caller-provided augmenter carries its cache (and health counters)
    // across calls; otherwise a fresh per-trial instance is used. The RNG
    // draw happens in both branches so later draws stay aligned.
    std::optional<PromptAugmenter> local_augmenter;
    const uint64_t augmenter_seed = trial_rng.NextUint64();
    PromptAugmenter* augmenter = options.shared_augmenter;
    if (augmenter == nullptr) {
      local_augmenter.emplace(augmenter_config, augmenter_seed);
      augmenter = &*local_augmenter;
    }
    // Health counters accumulate for the augmenter's lifetime; with a
    // shared instance that spans calls, so account in deltas from here.
    const PromptAugmenter::Health base_health = augmenter->health();
    const int breaker_capacity = options.shared_augmenter != nullptr
                                     ? augmenter->config().cache_capacity
                                     : augmenter_config.cache_capacity;
    std::vector<int> predictions(unit.query_labels.size(), -1);
    // Circuit breaker: once more entries have been evicted as poisoned than
    // the cache even holds, the pseudo-prompt source is clearly unhealthy —
    // skip the augmenter stage for the rest of the episode (Eq. 9 degrades
    // to S-hat' = S-hat).
    bool augmenter_enabled = mc.use_augmenter && !options.disable_augmenter;

    Stopwatch predict_timer;
    GP_TRACE_SPAN("eval/predict");
    const int num_queries = static_cast<int>(unit.query_labels.size());
    int predicted_this_trial = 0;
    for (int start = 0; start < num_queries; start += cfg.query_batch) {
      if (req.PastDeadline(cfg.deadline_us)) {
        result.deadline_expired = true;
        break;
      }
      const int count = std::min(cfg.query_batch, num_queries - start);
      Tensor batch_emb = SliceRows(unit.query_emb, start, count);

      if (FaultInjector* inj = ActiveFaultInjector()) {
        if (inj->MaybeSlowBatch()) ++result.degradation.slow_batches;
        if (augmenter_enabled) {
          const auto entries = augmenter->cache().Entries();
          const int victim =
              inj->PickCacheEntryToPoison(static_cast<int>(entries.size()));
          if (victim >= 0) {
            CacheEntry* entry =
                augmenter->mutable_cache().MutableEntry(entries[victim].first);
            if (entry != nullptr && !entry->embedding.empty()) {
              entry->embedding[0] = std::numeric_limits<float>::quiet_NaN();
            }
          }
        }
      }

      Tensor step_prompts = unit.prompt_emb;
      std::vector<int> step_labels = unit.prompt_labels;
      if (augmenter_enabled) {
        augmenter->EvictPoisoned(mc.embedding_dim, ways);
        if (augmenter->health().evicted_poisoned -
                base_health.evicted_poisoned >
            breaker_capacity) {
          augmenter_enabled = false;
          ++result.degradation.augmenter_stage_skips;
          LOG(WARNING) << "request " << i << " trial " << t
                       << ": prompt cache repeatedly poisoned; augmenter "
                          "stage disabled for the rest of the episode";
        }
      }
      if (augmenter_enabled &&
          augmenter->ValidateCache(mc.embedding_dim, ways).ok()) {
        const auto cached = augmenter->GetCachedPrompts(mc.embedding_dim);
        if (cached.embeddings.rows() > 0) {
          step_prompts = ConcatRows({step_prompts, cached.embeddings});
          step_labels.insert(step_labels.end(), cached.labels.begin(),
                             cached.labels.end());
        }
      }

      const TaskGraphOutput out = model_.task_net().Forward(
          step_prompts, step_labels, batch_emb, ways);
      std::vector<int> batch_pred = ArgmaxRows(out.query_scores);
      std::vector<float> confidence = SoftmaxConfidence(out.query_scores);
      // Prediction fallback: a row of non-finite scores (damaged weights or
      // an injected fault that slipped past earlier rungs) gets a
      // deterministic random vote instead of an argmax over NaN, and its
      // confidence is floored so it can never enter the cache.
      for (int q = 0; q < count; ++q) {
        if (!out.query_scores.RowFinite(q)) {
          batch_pred[q] = static_cast<int>(trial_rng.UniformInt(ways));
          confidence[q] = 0.0f;
          ++result.degradation.prediction_fallbacks;
        }
        predictions[start + q] = batch_pred[q];
      }
      if (augmenter_enabled) {
        augmenter->ObserveQueries(batch_emb, batch_pred, confidence,
                                  std::min(mc.cache_inserts_per_batch, ways));
      }
      predicted_this_trial += count;
    }
    total_query_seconds += predict_timer.ElapsedSeconds();
    total_queries += predicted_this_trial;
    result.degradation.augmenter_rejected_inserts +=
        augmenter->health().rejected_nonfinite -
        base_health.rejected_nonfinite;
    result.degradation.augmenter_evicted_poisoned +=
        augmenter->health().evicted_poisoned - base_health.evicted_poisoned;

    // A deadline mid-trial leaves unpredicted queries; a partial trial's
    // accuracy would be biased, so it is dropped rather than averaged.
    if (result.deadline_expired) break;
    result.trial_accuracy_percent.push_back(
        100.0 * Accuracy(predictions, unit.query_labels));

    if (cfg.keep_embeddings && t + 1 == req.units.size()) {
      result.embeddings = ConcatRows({unit.candidate_emb, unit.query_emb});
      result.embedding_labels = unit.candidate_labels;
      result.embedding_labels.insert(result.embedding_labels.end(),
                                     unit.query_labels.begin(),
                                     unit.query_labels.end());
    }
  }

  result.accuracy_percent = ComputeMeanStd(result.trial_accuracy_percent);
  result.ms_per_query =
      total_queries > 0 ? 1e3 * total_query_seconds / total_queries : 0.0;
  result.completed_queries = total_queries;
  queries_done->Add(total_queries);
  result.degradation.PublishToTelemetry();
  return result;
}

std::vector<EvalResult> EvaluateInContextBatch(
    const GraphPrompterModel& model, const DatasetBundle& dataset,
    const std::vector<EvalConfig>& configs) {
  // One pool scope over both phases, so the pool drains once per call.
  // Without it, Prepare's own scope would drain on exit and hand the packed
  // encode's buffers back to the heap just before the task graph needs
  // buffers of the same classes; whether the allocator then returns that
  // memory to the OS depends on heap layout, so the page faults stage 3
  // pays would vary from one process to the next.
  PoolScope pool_scope;
  BatchEvaluation batch(model, dataset, configs);
  batch.Prepare();
  std::vector<EvalResult> results;
  results.reserve(configs.size());
  for (int i = 0; i < batch.size(); ++i) {
    results.push_back(batch.FinishRequest(i, BatchStage3Options{}));
  }
  return results;
}

EvalResult EvaluateInContext(const GraphPrompterModel& model,
                             const DatasetBundle& dataset,
                             const EvalConfig& eval_config) {
  return EvaluateInContextBatch(model, dataset, {eval_config})[0];
}

}  // namespace gp
