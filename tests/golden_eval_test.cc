// Golden regression tests for the retrieval/scoring pipeline.
//
// Pins (a) the quickstart-style in-context trial accuracies, (b) the
// same run's variants — Prodigy, clustering selector, augmenter disabled,
// 3-query task-graph steps, kept-embedding bytes — (c) the prompt
// selector's top-k selections, vote totals, and hit counts, (d) a short
// pretraining run's per-step losses and final parameter bytes, (e) the
// random-walk sampler's data graphs for node and edge items, (f) the
// task graph's outputs at eval_manyway's shape, (g) the serving
// daemon's replies to a chaos request log and its tenant snapshots after
// it, and (h) GNN_D's center-row embeddings and gradients for every
// architecture and depth, and (i) the Prompt Generator's embeddings and
// parameter gradients over overlapping data graphs, for fixed seeds into
// tests/golden/. Values are rendered with %.17g, so any change
// to retrieval or scoring that shifts predictions by even one ULP fails
// loudly. The selector goldens pin the exact scan that scores every
// (candidate, query) pair, the many-way one at eval_manyway's shape; the
// eval variants were generated from the per-trial serial evaluation loop
// that predated the single batched path, and packed multi-request batches
// must keep matching them bitwise.
//
// Regenerate (after an *intentional* numeric change, reviewed in the PR):
//   scripts/update_golden.sh

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/prodigy.h"
#include "core/batch_eval.h"
#include "core/graph_prompter.h"
#include "core/knn_retrieval.h"
#include "core/pretrain.h"
#include "core/prompt_generator.h"
#include "core/task_graph.h"
#include "data/datasets.h"
#include "gnn/encoder.h"
#include "graph/sampler.h"
#include "obs/telemetry.h"
#include "serve/server.h"
#include "serve_chaos_log.h"
#include "tensor/autograd.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "util/checksum.h"
#include "util/parallel.h"
#include "util/rng.h"

#ifndef GP_GOLDEN_DIR
#error "GP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace gp {
namespace {

std::string Fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---- renderers: each produces the exact text pinned in tests/golden/.

// Quickstart-shaped evaluation: deterministically initialised model (no
// pretraining, so the test stays fast), synthetic downstream graph, three
// trials.
DatasetBundle GoldenDownstream() { return MakeArxivSim(0.4, 21); }

EvalConfig QuickstartEval() {
  EvalConfig eval;
  eval.ways = 5;
  eval.shots = 3;
  eval.candidates_per_class = 10;
  eval.num_queries = 40;
  eval.trials = 3;
  eval.seed = 99;
  return eval;
}

// Pins per-trial accuracy plus the mean/std and, when the run kept its
// final trial's embeddings, their shape, a CRC-32 of their bytes and the
// episode labels.
std::string RenderEvalResult(const DatasetBundle& downstream,
                             const EvalResult& result) {
  std::ostringstream out;
  out << "dataset " << downstream.name << "\n";
  for (size_t t = 0; t < result.trial_accuracy_percent.size(); ++t) {
    out << "trial " << t << " accuracy_percent "
        << Fmt(result.trial_accuracy_percent[t]) << "\n";
  }
  out << "mean " << Fmt(result.accuracy_percent.mean) << "\n";
  out << "std " << Fmt(result.accuracy_percent.std) << "\n";
  if (result.embeddings.defined()) {
    out << "embeddings " << result.embeddings.rows() << "x"
        << result.embeddings.cols() << " crc32 "
        << Crc32(result.embeddings.data().data(),
                 static_cast<size_t>(result.embeddings.size()) *
                     sizeof(float))
        << "\n";
    out << "embedding_labels";
    for (int label : result.embedding_labels) out << " " << label;
    out << "\n";
  }
  return out.str();
}

std::string RenderEvalGolden() {
  DatasetBundle downstream = GoldenDownstream();
  GraphPrompterModel model(
      FullGraphPrompterConfig(downstream.graph.feature_dim(), 7));
  return RenderEvalResult(
      downstream, EvaluateInContext(model, downstream, QuickstartEval()));
}

// Variants of the quickstart evaluation, one golden file each, covering
// the stage-3 and selector branches the quickstart run does not take.
// Request-side variants run on the quickstart model; model-side variants
// run the quickstart request. The augmenter-disabled variant is a serving
// tenant's safe mode, a stage-3 option of the request.
struct RequestVariant {
  std::string golden;
  EvalConfig eval;
  BatchStage3Options options;
};

std::vector<RequestVariant> RequestVariants() {
  const EvalConfig eval = QuickstartEval();
  EvalConfig batch3 = eval;
  batch3.query_batch = 3;
  EvalConfig keep = eval;
  keep.keep_embeddings = true;
  return {{"disable_augmenter_eval.golden", eval, {.disable_augmenter = true}},
          {"query_batch3_eval.golden", batch3, {}},
          {"keep_embeddings_eval.golden", keep, {}}};
}

// Runs `variants` packed as one BatchEvaluation, finishing each request
// with its own stage-3 options, under one PoolScope as
// EvaluateInContextBatch does.
std::vector<EvalResult> EvaluateVariants(
    const GraphPrompterModel& model, const DatasetBundle& dataset,
    const std::vector<RequestVariant>& variants) {
  std::vector<EvalConfig> configs;
  for (const RequestVariant& v : variants) configs.push_back(v.eval);
  PoolScope pool_scope;
  BatchEvaluation batch(model, dataset, configs);
  batch.Prepare();
  std::vector<EvalResult> results;
  for (int i = 0; i < batch.size(); ++i) {
    results.push_back(batch.FinishRequest(i, variants[i].options));
  }
  return results;
}

struct ModelVariant {
  std::string golden;
  GraphPrompterConfig model;
};

std::vector<ModelVariant> ModelVariants(int feature_dim) {
  GraphPrompterConfig clustering = FullGraphPrompterConfig(feature_dim, 7);
  clustering.selector = SelectorKind::kClustering;
  // Prodigy: random prompts, augmenter off.
  return {{"prodigy_eval.golden", ProdigyConfig(feature_dim, 7)},
          {"clustering_eval.golden", clustering}};
}

// Raw selector outputs on fixed random embeddings, one block per distance
// metric: selected candidate ids, per-candidate vote totals, hit counts.
// Candidate p belongs to class p % classes.
std::string RenderSelectionGolden(int num_prompts, int num_queries, int dim,
                                  int classes) {
  Rng rng(123);
  Tensor prompts = Tensor::Randn(num_prompts, dim, &rng);
  Tensor prompt_importance = Tensor::Randn(num_prompts, 1, &rng);
  Tensor queries = Tensor::Randn(num_queries, dim, &rng);
  Tensor query_importance = Tensor::Randn(num_queries, 1, &rng);
  std::vector<int> labels(num_prompts);
  for (int p = 0; p < num_prompts; ++p) labels[p] = p % classes;

  std::ostringstream out;
  for (DistanceMetric metric :
       {DistanceMetric::kCosine, DistanceMetric::kEuclidean,
        DistanceMetric::kManhattan}) {
    KnnConfig config;
    config.shots = 3;
    config.metric = metric;
    const KnnSelection sel =
        SelectPrompts(prompts, prompt_importance, labels, queries,
                      query_importance, classes, config);
    out << "metric " << DistanceMetricName(metric) << "\n";
    out << "selected";
    for (int p : sel.selected) out << " " << p;
    out << "\n";
    for (int p = 0; p < num_prompts; ++p) {
      if (sel.hit_counts[p] == 0) continue;
      out << "candidate " << p << " votes " << Fmt(sel.votes[p]) << " hits "
          << sel.hit_counts[p] << "\n";
    }
  }
  return out.str();
}

// Ten pretraining steps of a small model (the pretrain_test size): every
// step's loss and train accuracy, then a CRC-32 of each named parameter's
// bytes. This is the only golden that runs autograd backward and AdamW,
// so it pins every gradient kernel the pretraining graph reaches.
std::string RenderPretrainGolden() {
  const DatasetBundle ds = MakeMagSim(0.08, 3);
  GraphPrompterConfig config;
  config.feature_dim = ds.graph.feature_dim();
  config.embedding_dim = 16;
  config.recon_hidden = 16;
  config.selection_hidden = 16;
  config.sampler.max_nodes = 10;
  config.seed = 1;
  GraphPrompterModel model(config);
  PretrainConfig pretrain;
  pretrain.steps = 10;
  pretrain.ways = 3;
  pretrain.shots = 2;
  pretrain.queries_per_task = 3;
  pretrain.log_every = 1;
  const PretrainCurves curves = Pretrain(&model, ds, pretrain);

  std::ostringstream out;
  for (size_t i = 0; i < curves.step.size(); ++i) {
    out << "step " << curves.step[i] << " loss " << Fmt(curves.loss[i])
        << " train_accuracy " << Fmt(curves.train_accuracy[i]) << "\n";
  }
  for (const auto& [name, param] : model.NamedParameters()) {
    out << "param " << name << " " << param.rows() << "x" << param.cols()
        << " crc32 "
        << Crc32(param.data().data(),
                 static_cast<size_t>(param.size()) * sizeof(float))
        << "\n";
  }
  return out.str();
}

// Data graphs (Eq. 1) sampled by SampleForItem for node items of a MagSim
// graph and edge items of an FB15K-sim graph, then one multi-center call
// with a duplicated center. Every call draws from one RNG stream, so the
// golden also pins how many draws each sample consumes.
void RenderSubgraph(const Subgraph& sg, std::ostringstream* out) {
  auto line = [out](const char* name, const std::vector<int>& values) {
    *out << name;
    for (int v : values) *out << " " << v;
    *out << "\n";
  };
  line("nodes", sg.nodes);
  line("center_local", sg.center_local);
  line("edge_src", sg.edge_src);
  line("edge_dst", sg.edge_dst);
  line("edge_rel", sg.edge_rel);
  line("edge_ids", sg.edge_ids);
}

std::string RenderSamplerGolden() {
  SamplerConfig walk;
  walk.num_hops = 2;
  walk.max_nodes = 16;
  walk.num_walks = 2;
  const DatasetBundle mag = MakeMagSim(0.08, 3);
  const DatasetBundle fb = MakeFb15kSim(0.1, 5);
  Rng rng(41);
  std::ostringstream out;
  for (const DatasetBundle* ds : {&mag, &fb}) {
    PromptGeneratorConfig config;
    config.gnn.in_dim = ds->graph.feature_dim();
    config.sampler = walk;
    Rng init_rng(1);
    const PromptGenerator generator(config, &init_rng);
    out << "dataset " << ds->name << "\n";
    for (size_t c = 0; c < ds->train_items_by_class.size() && c < 6; ++c) {
      const std::vector<int>& items = ds->train_items_by_class[c];
      for (size_t i = 0; i < items.size() && i < 2; ++i) {
        out << "item " << items[i] << "\n";
        RenderSubgraph(generator.SampleForItem(*ds, items[i], &rng), &out);
      }
    }
  }
  const GraphAdapter mag_view(mag.graph);
  const Sampler sampler(&mag_view, walk);
  out << "centers 5 9 5 120\n";
  RenderSubgraph(sampler.SampleAroundNodes({5, 9, 5, 120}, &rng), &out);
  return out.str();
}

// eval_manyway's task graph: d = 64, 123 prompts over 40 classes and 25
// batches of 4 queries. The model is untrained, so its ReZero gates start
// at 0 and its message biases at 0; both are set nonzero so the attention
// reaches the output and the message bias is added where it shows. Each
// batch renders a CRC-32 of the query scores and the label embeddings,
// once under NoGradGuard (the inference path) and once with autograd on
// (the training path, whose forward must give the same bits).
uint32_t TensorCrc(const Tensor& t) {
  return Crc32(t.data().data(), static_cast<size_t>(t.size()) * sizeof(float));
}

std::string RenderTaskGraphGolden() {
  const int dim = 64, ways = 40, num_prompts = 123, batches = 25, batch = 4;
  Rng rng(19);
  TaskGraphConfig config;
  config.embedding_dim = dim;
  TaskGraphNet net(config, &rng);
  for (auto [name, param] : net.NamedParameters()) {
    if (!name.ends_with("gate") && !name.ends_with("message/bias")) continue;
    for (float& v : param.mutable_data()) v = rng.Normal();
  }
  const Tensor prompts = Tensor::Randn(num_prompts, dim, &rng);
  std::vector<int> labels(num_prompts);
  for (int p = 0; p < num_prompts; ++p) labels[p] = p % ways;

  std::ostringstream out;
  for (int b = 0; b < batches; ++b) {
    const Tensor queries = Tensor::Randn(batch, dim, &rng);
    for (const bool grad : {false, true}) {
      std::optional<NoGradGuard> no_grad;
      if (!grad) no_grad.emplace();
      const TaskGraphOutput o = net.Forward(prompts, labels, queries, ways);
      out << "batch " << b << (grad ? " grad" : " no_grad")
          << " query_scores crc32 " << TensorCrc(o.query_scores)
          << " label_embeddings crc32 " << TensorCrc(o.label_embeddings)
          << "\n";
    }
  }
  return out.str();
}

// GNN_D over a packed union shaped like the generator's: the data graphs
// of three FB15K-sim edge items (two centers each), a three-node path that
// no center reaches, a lone center with no edges, requested twice as a
// self-loop edge item's center is, and a six-node chain read from one end,
// so that each layer reaches one row further. Every architecture, at one to three
// layers, with and without edge weights, renders a CRC-32 of the center
// rows' embeddings without autograd and with it, then, after Backward from
// a fixed weighted sum of those rows, of every parameter's grad, the
// edge-weight grad and x's grad. A second request reads the edge items'
// centers alone.
struct EncoderUnion {
  int num_rows = 0;
  std::vector<int> src, dst;
  std::vector<int> centers;       // every center row, packed order
  std::vector<int> item_centers;  // the edge items' center rows only
};

EncoderUnion GoldenEncoderUnion() {
  const DatasetBundle fb = MakeFb15kSim(0.1, 5);
  SamplerConfig walk;
  walk.num_hops = 3;
  walk.max_nodes = 20;
  walk.num_walks = 2;
  const GraphAdapter view(fb.graph);
  const Sampler sampler(&view, walk);
  Rng rng(23);
  std::vector<Subgraph> parts;
  for (int c = 0; c < 3; ++c) {
    parts.push_back(
        sampler.SampleAroundEdge(fb.train_items_by_class[c][0], &rng));
  }
  Subgraph path;
  path.nodes = {1, 2, 3};
  path.edge_src = {0, 1, 1, 2};
  path.edge_dst = {1, 0, 2, 1};
  Subgraph lone;
  lone.nodes = {0};
  lone.center_local = {0, 0};
  Subgraph chain;
  chain.nodes = {4, 5, 6, 7, 8, 9};
  chain.center_local = {0};
  for (int i = 0; i + 1 < chain.num_nodes(); ++i) {
    chain.edge_src.insert(chain.edge_src.end(), {i, i + 1});
    chain.edge_dst.insert(chain.edge_dst.end(), {i + 1, i});
  }
  parts.insert(parts.begin() + 2, {path, lone, chain});

  EncoderUnion u;
  for (const Subgraph& sg : parts) {
    for (int e = 0; e < sg.num_edges(); ++e) {
      u.src.push_back(sg.edge_src[e] + u.num_rows);
      u.dst.push_back(sg.edge_dst[e] + u.num_rows);
    }
    for (int local : sg.center_local) {
      u.centers.push_back(local + u.num_rows);
      if (sg.center_local.size() == 2 && sg.num_edges() > 0) {
        u.item_centers.push_back(local + u.num_rows);
      }
    }
    u.num_rows += sg.num_nodes();
  }
  return u;
}

// GNN_D's embeddings of `rows` of the union, computed over their
// receptive field alone (the golden was rendered over the whole union).
Tensor EncodeRows(const GnnEncoder& encoder, const Tensor& x,
                  const EncoderUnion& u, const Tensor& edge_weight,
                  const std::vector<int>& rows) {
  const GnnPlan plan = encoder.Plan(u.num_rows, u.src, u.dst, rows);
  return encoder.Forward(
      GatherRows(x, plan.rows), plan,
      edge_weight.defined() ? GatherRows(edge_weight, plan.edges) : Tensor());
}

std::string GradCrc(const Tensor& t) {
  if (t.grad().empty()) return "none";
  return std::to_string(
      Crc32(t.grad().data(), t.grad().size() * sizeof(float)));
}

std::string RenderEncoderRowsGolden() {
  const EncoderUnion u = GoldenEncoderUnion();
  const int in_dim = 12, out_dim = 10;
  const int num_edges = static_cast<int>(u.src.size());
  Rng data_rng(29);
  const Tensor x_values = Tensor::Randn(u.num_rows, in_dim, &data_rng);
  std::vector<float> w_values(num_edges);
  for (float& v : w_values) v = 0.05f + 0.9f * data_rng.UniformFloat();

  std::ostringstream out;
  out << "rows " << u.num_rows << " edges " << num_edges << " centers "
      << u.centers.size() << " item_centers " << u.item_centers.size()
      << "\n";
  for (GnnArch arch : {GnnArch::kSage, GnnArch::kGcn, GnnArch::kGat}) {
    for (int layers = 1; layers <= 3; ++layers) {
      for (const bool weighted : {false, true}) {
        GnnEncoderConfig config;
        config.arch = arch;
        config.in_dim = in_dim;
        config.hidden_dim = 20;
        config.out_dim = out_dim;
        config.num_layers = layers;
        for (const std::vector<int>* rows : {&u.centers, &u.item_centers}) {
          Rng init_rng(7);
          const GnnEncoder encoder(config, &init_rng);
          out << GnnArchName(arch) << " layers " << layers
              << (weighted ? " weighted" : " unweighted")
              << (rows == &u.centers ? " centers" : " item_centers") << "\n";
          const Tensor readout =
              Tensor::Randn(static_cast<int>(rows->size()), out_dim,
                            &data_rng);
          {
            NoGradGuard no_grad;
            const Tensor w = weighted
                                 ? Tensor::FromData(num_edges, 1, w_values)
                                 : Tensor();
            out << "no_grad crc32 "
                << TensorCrc(EncodeRows(encoder, x_values, u, w, *rows))
                << "\n";
          }
          Tensor x = Tensor::FromData(u.num_rows, in_dim, x_values.data(),
                                      /*requires_grad=*/true);
          Tensor w = weighted ? Tensor::FromData(num_edges, 1, w_values,
                                                 /*requires_grad=*/true)
                              : Tensor();
          const Tensor embedded = EncodeRows(encoder, x, u, w, *rows);
          out << "grad crc32 " << TensorCrc(embedded) << "\n";
          Backward(SumAll(Mul(embedded, readout)));
          for (const auto& [name, param] : encoder.NamedParameters()) {
            out << "grad " << name << " crc32 " << GradCrc(param) << "\n";
          }
          if (weighted) out << "grad edge_weight crc32 " << GradCrc(w) << "\n";
          out << "grad x crc32 " << GradCrc(x) << "\n";
        }
      }
    }
  }
  return out.str();
}

// The Prompt Generator over a packed union of twelve overlapping FB15K-sim
// data graphs, where MLP_phi weighs every edge occurrence under autograd
// and each distinct edge once at inference: the inference embedding, one
// data graph's Eq. 3 weights, the autograd embedding, and every generator
// parameter's grad after Backward from a fixed weighted sum.
std::string RenderGeneratorGolden() {
  const DatasetBundle ds = MakeFb15kSim(0.2, 11);
  PromptGeneratorConfig config;
  config.gnn.in_dim = ds.graph.feature_dim();
  config.gnn.hidden_dim = 16;
  config.gnn.out_dim = 12;
  config.sampler.max_nodes = 14;
  Rng init_rng(3);
  const PromptGenerator generator(config, &init_rng);
  Rng sample_rng(5);
  std::vector<Subgraph> subgraphs;
  for (int i = 0; i < 12; ++i) {
    subgraphs.push_back(generator.SampleForItem(
        ds, ds.train_items_by_class[i % 3][i % 2], &sample_rng));
  }
  const GraphAdapter view(ds.graph);
  Counter* edges = Telemetry().GetCounter("generator/recon_edges");
  Counter* unique = Telemetry().GetCounter("generator/recon_unique_edges");
  const int64_t edges_before = edges->Value();
  const int64_t unique_before = unique->Value();
  std::ostringstream out;
  {
    NoGradGuard no_grad;
    out << "no_grad crc32 "
        << TensorCrc(generator.EmbedSubgraphs(view, subgraphs)) << "\n";
    out << "recon_edges " << edges->Value() - edges_before
        << " recon_unique_edges " << unique->Value() - unique_before << "\n";
    out << "edge_weights crc32 "
        << TensorCrc(generator.ReconstructEdgeWeights(view, subgraphs[0]))
        << "\n";
  }
  const Tensor embedded = generator.EmbedSubgraphs(view, subgraphs);
  out << "grad crc32 " << TensorCrc(embedded) << "\n";
  Rng data_rng(7);
  const Tensor readout =
      Tensor::Randn(embedded.rows(), embedded.cols(), &data_rng);
  Backward(SumAll(Mul(embedded, readout)));
  for (const auto& [name, param] : generator.NamedParameters()) {
    out << "grad " << name << " crc32 " << GradCrc(param) << "\n";
  }
  return out.str();
}

// The serving daemon's pipe-mode replies to the request log in
// tests/serve_chaos_log.h, then every tenant's snapshot. Each reply renders
// its status, retries, degradation events, accuracy and message; the
// timing fields (ms_per_query, server_latency_us) are left out.
std::string RenderServeRepliesGolden() {
  const DatasetBundle dataset = ChaosLogDataset();
  const GraphPrompterModel model(
      ChaosLogModelConfig(dataset.graph.feature_dim()));
  PromptServer server(&model, &dataset, ChaosLogServeConfig());
  const std::vector<EvalRequest> log = ChaosLog(dataset.num_classes);
  const std::vector<EvalResponse> replies = ServeLogThroughPipe(&server, log);
  std::ostringstream out;
  if (replies.size() != log.size()) return "pipe session failed\n";
  for (const EvalResponse& r : replies) {
    out << "reply " << r.request_id << " status "
        << StatusCodeName(static_cast<StatusCode>(r.status_code))
        << " retries " << r.retries << " degradation "
        << r.degradation_events << " mean " << Fmt(r.accuracy_mean)
        << " std " << Fmt(r.accuracy_std) << " message " << r.message
        << "\n";
  }
  for (const PromptServer::TenantSnapshot& t : server.SnapshotTenants()) {
    out << "tenant " << t.name << " requests " << t.requests
        << " safe_mode_requests " << t.safe_mode_requests
        << " breaker_trips " << t.breaker_trips << " degradation_events "
        << t.degradation_events << " breaker "
        << BreakerStateName(t.breaker_state) << "\n";
  }
  return out.str();
}

// ---- harness: compare against (or regenerate) tests/golden/<name>.

bool UpdateRequested() {
  const char* env = std::getenv("GP_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

void CheckGolden(const std::string& name, const std::string& rendered) {
  const std::string path = std::string(GP_GOLDEN_DIR) + "/" + name;
  if (UpdateRequested()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::printf("updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run scripts/update_golden.sh to generate it";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), rendered)
      << "pipeline output diverged from " << path
      << ". If the change is intentional, regenerate with "
         "scripts/update_golden.sh and review the diff.";
}

TEST(GoldenEvalTest, QuickstartTrialAccuracies) {
  CheckGolden("quickstart_eval.golden", RenderEvalGolden());
}

TEST(GoldenEvalTest, SelectorTopKPerMetric) {
  CheckGolden("selector_topk.golden", RenderSelectionGolden(48, 20, 12, 4));
}

// eval_manyway's selector shape: 40 ways x 10 candidates per class against
// 100 queries at d = 64.
TEST(GoldenEvalTest, SelectorTopKManyWay) {
  CheckGolden("selector_topk_manyway.golden",
              RenderSelectionGolden(400, 100, 64, 40));
}

TEST(GoldenEvalTest, TaskGraphManyWay) {
  CheckGolden("task_graph_manyway.golden", RenderTaskGraphGolden());
}

TEST(GoldenEvalTest, PretrainLossesAndParametersMatchGolden) {
  CheckGolden("pretrain.golden", RenderPretrainGolden());
}

TEST(GoldenEvalTest, SamplerOutputsMatchGolden) {
  CheckGolden("sampler.golden", RenderSamplerGolden());
}

TEST(GoldenEvalTest, EncoderRowsMatchGolden) {
  CheckGolden("encoder_rows.golden", RenderEncoderRowsGolden());
}

TEST(GoldenEvalTest, GeneratorEmbeddingsAndGradsMatchGolden) {
  CheckGolden("generator.golden", RenderGeneratorGolden());
}

TEST(GoldenEvalTest, ServeRepliesMatchGolden) {
  CheckGolden("serve_replies.golden", RenderServeRepliesGolden());
}

TEST(GoldenEvalTest, EvalVariantsMatchGolden) {
  const DatasetBundle downstream = GoldenDownstream();
  const int feature_dim = downstream.graph.feature_dim();
  GraphPrompterModel full(FullGraphPrompterConfig(feature_dim, 7));
  for (const RequestVariant& v : RequestVariants()) {
    SCOPED_TRACE(v.golden);
    const EvalResult result = EvaluateVariants(full, downstream, {v})[0];
    CheckGolden(v.golden, RenderEvalResult(downstream, result));
  }
  for (const ModelVariant& v : ModelVariants(feature_dim)) {
    SCOPED_TRACE(v.golden);
    GraphPrompterModel model(v.model);
    CheckGolden(v.golden, RenderEvalResult(downstream,
                                           EvaluateInContext(
                                               model, downstream,
                                               QuickstartEval())));
  }
}

// The quickstart request and its request-side variants, packed as one
// multi-request batch, must each reproduce their standalone golden:
// packing across requests cannot change any request's result.
TEST(GoldenEvalTest, PackedBatchMatchesGoldens) {
  if (UpdateRequested()) GTEST_SKIP() << "goldens come from standalone runs";
  const DatasetBundle downstream = GoldenDownstream();
  std::vector<RequestVariant> variants = {
      {"quickstart_eval.golden", QuickstartEval(), {}}};
  for (const RequestVariant& v : RequestVariants()) variants.push_back(v);
  GraphPrompterModel model(
      FullGraphPrompterConfig(downstream.graph.feature_dim(), 7));
  const std::vector<EvalResult> results =
      EvaluateVariants(model, downstream, variants);
  ASSERT_EQ(results.size(), variants.size());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(variants[i].golden);
    CheckGolden(variants[i].golden, RenderEvalResult(downstream, results[i]));
  }
}

// The quickstart golden must hold at any ParallelFor width.
TEST(GoldenEvalTest, QuickstartGoldenHoldsAtEveryWidth) {
  const int saved_threads = NumThreads();
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    CheckGolden("quickstart_eval.golden", RenderEvalGolden());
  }
  SetNumThreads(saved_threads);
}

}  // namespace
}  // namespace gp
