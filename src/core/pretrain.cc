#include "core/pretrain.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "nn/optimizer.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/pipeline.h"

namespace gp {
namespace {

// The prompts and queries of one episode with their episode labels.
struct Episode {
  std::vector<Subgraph> prompts, queries;
  std::vector<int> prompt_labels, query_labels;
};

struct EpisodeLoss {
  Tensor loss;
  int correct = 0;
  int total = 0;
};

// One episodic forward pass: embeds prompts and queries (jointly, as one
// packed batch), applies selection-layer weighting, runs the task graph,
// and returns the CE loss plus the number of correctly predicted queries.
EpisodeLoss ForwardEpisode(const GraphPrompterModel& model,
                           const GraphView& view, const Episode& episode,
                           int ways) {
  std::vector<Subgraph> all = episode.prompts;
  all.insert(all.end(), episode.queries.begin(), episode.queries.end());
  const Tensor embeddings = model.generator().EmbedSubgraphs(view, all);
  const int num_prompts = static_cast<int>(episode.prompts.size());
  const int num_queries = embeddings.rows() - num_prompts;
  Tensor prompt_emb = SliceRows(embeddings, 0, num_prompts);
  Tensor query_emb = SliceRows(embeddings, num_prompts, num_queries);

  if (model.config().use_selection_layer) {
    // G'_p = G_p * I_p keeps the selection layer in the training loss.
    prompt_emb = model.selection().WeightedEmbeddings(prompt_emb);
  }

  const TaskGraphOutput out = model.task_net().Forward(
      prompt_emb, episode.prompt_labels, query_emb, ways);
  EpisodeLoss result;
  result.loss = CrossEntropyWithLogits(out.query_scores, episode.query_labels);
  const std::vector<int> pred = ArgmaxRows(out.query_scores);
  for (size_t i = 0; i < episode.query_labels.size(); ++i) {
    if (pred[i] == episode.query_labels[i]) ++result.correct;
  }
  result.total = static_cast<int>(episode.query_labels.size());
  return result;
}

// Builds a Multi-Task episode (Eq. 13): a supervised m-way k-shot task
// over the dataset's own labels, with queries drawn from the train split.
bool BuildMultiTaskEpisode(const GraphPrompterModel& model,
                           const DatasetBundle& dataset,
                           const PretrainConfig& config, Rng* rng,
                           Episode* out) {
  EpisodeSampler sampler(&dataset);
  EpisodeConfig episode;
  episode.ways = config.ways;
  episode.candidates_per_class = config.shots;
  episode.num_queries = config.queries_per_task;
  episode.queries_from_test = false;
  auto task_or = sampler.Sample(episode, rng);
  if (!task_or.ok()) return false;
  const FewShotTask& task = *task_or;
  for (const auto& ex : task.candidates) {
    out->prompts.push_back(
        model.generator().SampleForItem(dataset, ex.item, rng));
    out->prompt_labels.push_back(ex.label);
  }
  for (const auto& ex : task.queries) {
    out->queries.push_back(
        model.generator().SampleForItem(dataset, ex.item, rng));
    out->query_labels.push_back(ex.label);
  }
  return true;
}

// Builds a Neighbor Matching episode (Eq. 12): classes are the local
// neighborhoods of m sampled anchor nodes; examples/queries are nodes
// drawn from those neighborhoods.
bool BuildNeighborMatchingEpisode(const GraphPrompterModel& model,
                                  const GraphView& view,
                                  const PretrainConfig& config, Rng* rng,
                                  Episode* out) {
  const int needed_neighbors = config.shots + 1;  // k prompts + 1 query
  std::vector<int> anchors;
  // Rejection-sample anchors with enough distinct neighbors.
  for (int attempt = 0; attempt < 50 * config.ways &&
                        static_cast<int>(anchors.size()) < config.ways;
       ++attempt) {
    const int candidate = static_cast<int>(rng->UniformInt(view.num_nodes()));
    if (view.Degree(candidate) < needed_neighbors) continue;
    if (std::find(anchors.begin(), anchors.end(), candidate) !=
        anchors.end()) {
      continue;
    }
    anchors.push_back(candidate);
  }
  if (static_cast<int>(anchors.size()) < config.ways) return false;

  std::vector<Subgraph> queries;
  std::vector<int> query_labels;
  for (int label = 0; label < config.ways; ++label) {
    const int anchor = anchors[label];
    // Distinct neighbor sample.
    std::vector<int> unique_neighbors;
    {
      const AdjEntry* adj = view.NeighborsBegin(anchor);
      const int deg = view.Degree(anchor);
      std::vector<int> all(deg);
      for (int i = 0; i < deg; ++i) all[i] = adj[i].neighbor;
      std::sort(all.begin(), all.end());
      all.erase(std::unique(all.begin(), all.end()), all.end());
      rng->Shuffle(&all);
      unique_neighbors = std::move(all);
    }
    if (static_cast<int>(unique_neighbors.size()) < needed_neighbors) {
      return false;
    }
    for (int s = 0; s < config.shots; ++s) {
      out->prompts.push_back(
          model.generator().SampleForNode(view, unique_neighbors[s], rng));
      out->prompt_labels.push_back(label);
    }
    queries.push_back(model.generator().SampleForNode(
        view, unique_neighbors[config.shots], rng));
    query_labels.push_back(label);
  }
  // Shuffle queries jointly so label order carries no signal.
  std::vector<int> perm(queries.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  rng->Shuffle(&perm);
  for (int i : perm) {
    out->queries.push_back(std::move(queries[i]));
    out->query_labels.push_back(query_labels[i]);
  }
  return true;
}

// Multi-Task over a GraphView: the view has no DatasetBundle splits, so
// the m-way k-shot task is assembled by rejection-sampling nodes until
// `ways` classes hold `shots` distinct prompts each, then drawing queries
// from the selected classes. Class ids are remapped to episode labels in
// discovery order; deterministic in the Rng stream.
bool BuildMultiTaskEpisode(const GraphPrompterModel& model,
                           const GraphView& view,
                           const PretrainConfig& config, Rng* rng,
                           Episode* out) {
  if (view.num_node_classes() < config.ways) return false;
  std::unordered_map<int, int> episode_label;  // class -> slot
  std::vector<std::vector<int>> members(config.ways);
  std::unordered_set<int> used;
  const int64_t budget =
      200LL * config.ways * (config.shots + config.queries_per_task);
  int filled = 0;
  for (int64_t attempt = 0; attempt < budget && filled < config.ways;
       ++attempt) {
    const int node = static_cast<int>(rng->UniformInt(view.num_nodes()));
    if (used.count(node) != 0) continue;
    const int label = view.NodeLabel(node);
    if (label < 0) continue;
    auto it = episode_label.find(label);
    int slot;
    if (it == episode_label.end()) {
      if (static_cast<int>(episode_label.size()) >= config.ways) continue;
      slot = static_cast<int>(episode_label.size());
      episode_label.emplace(label, slot);
    } else {
      slot = it->second;
    }
    if (static_cast<int>(members[slot].size()) >= config.shots) continue;
    used.insert(node);
    members[slot].push_back(node);
    if (static_cast<int>(members[slot].size()) == config.shots) ++filled;
  }
  if (filled < config.ways) return false;
  for (int slot = 0; slot < config.ways; ++slot) {
    for (int node : members[slot]) {
      out->prompts.push_back(model.generator().SampleForNode(view, node, rng));
      out->prompt_labels.push_back(slot);
    }
  }
  int found = 0;
  for (int64_t attempt = 0;
       attempt < budget && found < config.queries_per_task; ++attempt) {
    const int node = static_cast<int>(rng->UniformInt(view.num_nodes()));
    if (used.count(node) != 0) continue;
    auto it = episode_label.find(view.NodeLabel(node));
    if (it == episode_label.end()) continue;
    used.insert(node);
    out->queries.push_back(model.generator().SampleForNode(view, node, rng));
    out->query_labels.push_back(it->second);
    ++found;
  }
  return found > 0;
}

// The Multi-Task builder is the one part of an episode that depends on
// whether the caller holds a DatasetBundle (train split) or only a view.
using MultiTaskBuilder = std::function<bool(Rng*, Episode*)>;

// The optimisation loop shared by both Pretrain overloads. Neighbor
// Matching episodes and every forward pass read the graph through `view`.
PretrainCurves RunPretrainLoop(GraphPrompterModel* model,
                               const GraphView& view,
                               const PretrainConfig& config,
                               const MultiTaskBuilder& build_multi_task) {
  CHECK(model != nullptr);
  CHECK(config.neighbor_matching || config.multi_task);
  // Step-to-step forward/backward tensors recycle through the buffer pool
  // for the duration of the run; drained on exit.
  PoolScope pool_scope;
  Rng rng(config.seed);
  AdamW optimizer(model->Parameters(), config.learning_rate,
                  config.weight_decay);

  PretrainCurves curves;
  double window_loss = 0.0;
  int window_correct = 0, window_total = 0, window_steps = 0;

  static Counter* steps_done = Telemetry().GetCounter("pretrain/steps");

  // Pipelined schedule (DESIGN.md §13): episode construction for step s+1
  // overlaps the forward/backward/optimizer work for step s. The builders
  // are the loop's only RNG consumers and sampling reads just the graph —
  // never the parameters the optimizer is concurrently updating — so the
  // overlap is safe. Prepare tasks chain through an explicit dependency
  // edge because they share the RNG stream: they run one at a time in step
  // order and draw byte-for-byte the serial sequence, making the loss and
  // accuracy curves bitwise identical at any worker count.
  struct PreparedStep {
    bool mt_ok = false;
    Episode mt;
    bool nm_ok = false;
    Episode nm;
  };
  FaultInjector* const entry_injector = ActiveFaultInjector();
  std::vector<PreparedStep> prepared_steps(std::max(0, config.steps));
  std::vector<PipelineExecutor::TaskId> prep_ids(prepared_steps.size(), -1);
  PipelineExecutor::Options exec_options;
  exec_options.workers = PipelineActive() ? 1 : 0;
  exec_options.max_in_flight = 2;
  PipelineExecutor exec(exec_options);
  auto submit_prepare = [&](int idx) {
    PreparedStep* data = &prepared_steps[idx];
    std::vector<PipelineExecutor::TaskId> deps;
    if (idx > 0) deps.push_back(prep_ids[idx - 1]);
    prep_ids[idx] = exec.Submit(
        [&, data] {
          GP_TRACE_SPAN("pretrain/prepare");
          // Workers inherit no thread-locals; keep the submitter's
          // fault-injector scope in effect inside the task body.
          ScopedThreadFaultInjector scoped_injector(entry_injector);
          if (config.multi_task) {
            data->mt_ok = build_multi_task(&rng, &data->mt);
          }
          if (config.neighbor_matching) {
            data->nm_ok = BuildNeighborMatchingEpisode(*model, view, config,
                                                       &rng, &data->nm);
          }
        },
        std::move(deps));
  };
  if (!prepared_steps.empty()) submit_prepare(0);

  for (int step = 1; step <= config.steps; ++step) {
    GP_TRACE_SPAN("pretrain/step");
    steps_done->Add(1);
    optimizer.ZeroGrad();
    const int idx = step - 1;
    if (step < config.steps) submit_prepare(idx + 1);
    exec.Wait(prep_ids[idx]);
    PreparedStep& prepared = prepared_steps[idx];

    Tensor total_loss;
    int correct = 0, total = 0;

    if (prepared.mt_ok) {
      EpisodeLoss mt = ForwardEpisode(*model, view, prepared.mt, config.ways);
      total_loss = mt.loss;
      correct += mt.correct;
      total += mt.total;
    }
    if (prepared.nm_ok) {
      EpisodeLoss nm = ForwardEpisode(*model, view, prepared.nm, config.ways);
      total_loss = total_loss.defined() ? Add(total_loss, nm.loss) : nm.loss;
      correct += nm.correct;
      total += nm.total;
    }
    // The episode's subgraphs are consumed; release them now instead of
    // holding every step's episode until the loop ends.
    prepared = PreparedStep();
    if (!total_loss.defined()) continue;  // no episode could be built

    Backward(total_loss);
    optimizer.ClipGradNorm(config.grad_clip);
    optimizer.Step();

    window_loss += total_loss.item();
    window_correct += correct;
    window_total += total;
    ++window_steps;

    if (step % config.log_every == 0 || step == config.steps) {
      const double mean_loss =
          window_steps > 0 ? window_loss / window_steps : 0.0;
      const double acc = window_total > 0
                             ? 100.0 * window_correct / window_total
                             : 0.0;
      curves.step.push_back(step);
      curves.loss.push_back(mean_loss);
      curves.train_accuracy.push_back(acc);
      if (config.verbose) {
        LOG(INFO) << "pretrain step " << step << " loss=" << mean_loss
                  << " acc=" << acc << "%";
      }
      window_loss = 0.0;
      window_correct = window_total = window_steps = 0;
    }
  }
  return curves;
}

}  // namespace

PretrainCurves Pretrain(GraphPrompterModel* model,
                        const DatasetBundle& dataset,
                        const PretrainConfig& config) {
  const GraphAdapter view(dataset.graph);
  return RunPretrainLoop(model, view, config, [&](Rng* rng, Episode* out) {
    return BuildMultiTaskEpisode(*model, dataset, config, rng, out);
  });
}

PretrainCurves Pretrain(GraphPrompterModel* model, const GraphView& view,
                        const PretrainConfig& config) {
  return RunPretrainLoop(model, view, config, [&](Rng* rng, Episode* out) {
    return BuildMultiTaskEpisode(*model, view, config, rng, out);
  });
}

}  // namespace gp
