// Benchmark driver: runs one workload of perfbench/config.json from one
// seeded process, checks its outputs, and writes every end-to-end and
// per-layer metric to a result file that perfbench/run.py turns into the
// benchmark's result line.
//
//   gp_perfbench --config=perfbench/config.json --workload=serve_light
//                --seed=1 --seconds=10 --trace=0 --out=result.json
//                [--source=<git sha or tree hash>] [--trace-out=trace.json]
//
// Every layer is measured from outside the program: spans the driver opens
// around the public calls it makes, reply fields, the live kMetricsRequest
// frame, and the program's always-on span/* and layer counters read through
// Telemetry().Snapshot(). Nothing under src/ is instrumented for this.
//
// With --trace=1 the measured phase runs twice on the same inputs: once
// untraced (the per-layer counters come from this run, unperturbed) and
// once with trace recording on. The traced phase's spans split one
// operation's end-to-end time into each layer's self time: along the
// driver's thread for the in-process workloads, along each request's path
// through the server for serving. The remainder no layer claims is
// reported beside them, never folded in.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_eval.h"
#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "data/datasets.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "tensor/buffer_pool.h"
#include "util/cpuid.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/pipeline.h"
#include "util/proc_stats.h"

extern char** environ;

namespace perfbench {
namespace {

using gp::json::JsonValue;

// ------------------------------------------------------------ config

const JsonValue& Need(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    std::fprintf(stderr, "perfbench: config is missing \"%s\"\n", key.c_str());
    std::exit(2);
  }
  return *v;
}
double Num(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = Need(obj, key);
  CHECK(v.IsNumber()) << key << " must be a number";
  return v.number_value;
}
int Int(const JsonValue& obj, const std::string& key) {
  return static_cast<int>(Num(obj, key));
}
std::string Str(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = Need(obj, key);
  CHECK(v.IsString()) << key << " must be a string";
  return v.string_value;
}

// Re-serializes a parsed value (config sections are stamped into the
// result fingerprint verbatim).
void WriteValue(const JsonValue& v, gp::json::JsonWriter* w) {
  switch (v.type) {
    case JsonValue::Type::kNull: w->Null(); break;
    case JsonValue::Type::kBool: w->Bool(v.bool_value); break;
    case JsonValue::Type::kNumber: w->Double(v.number_value); break;
    case JsonValue::Type::kString: w->String(v.string_value); break;
    case JsonValue::Type::kArray:
      w->BeginArray();
      for (const JsonValue& e : v.elements) WriteValue(e, w);
      w->EndArray();
      break;
    case JsonValue::Type::kObject:
      w->BeginObject();
      for (const auto& [k, m] : v.members) {
        w->Key(k);
        WriteValue(m, w);
      }
      w->EndObject();
      break;
  }
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

gp::DatasetBundle MakeDataset(const JsonValue& cfg) {
  const std::string name = Str(cfg, "name");
  const double scale = Num(cfg, "scale");
  const uint64_t seed = static_cast<uint64_t>(Num(cfg, "seed"));
  if (name == "ArxivSim") return gp::MakeArxivSim(scale, seed);
  if (name == "WikiSim") return gp::MakeWikiSim(scale, seed);
  if (name == "Fb15kSim") return gp::MakeFb15kSim(scale, seed);
  std::fprintf(stderr, "perfbench: unknown dataset %s\n", name.c_str());
  std::exit(2);
}

std::unique_ptr<gp::GraphPrompterModel> MakeModel(const JsonValue& cfg,
                                                  int feature_dim) {
  gp::GraphPrompterConfig config = gp::FullGraphPrompterConfig(
      feature_dim, static_cast<uint64_t>(Num(cfg, "seed")));
  config.embedding_dim = Int(cfg, "embedding_dim");
  config.sampler.max_nodes = Int(cfg, "max_nodes");
  CHECK_OK(gp::Validate(config));
  return std::make_unique<gp::GraphPrompterModel>(config);
}

gp::PretrainConfig MakePretrainConfig(const JsonValue& cfg) {
  gp::PretrainConfig config;
  config.steps = Int(cfg, "steps");
  config.ways = Int(cfg, "ways");
  config.shots = Int(cfg, "shots");
  config.queries_per_task = Int(cfg, "queries_per_task");
  config.seed = static_cast<uint64_t>(Num(cfg, "seed"));
  return config;
}

gp::EvalConfig MakeEvalConfig(const JsonValue& cfg) {
  gp::EvalConfig ec;
  ec.ways = Int(cfg, "ways");
  ec.shots = Int(cfg, "shots");
  ec.candidates_per_class = Int(cfg, "candidates_per_class");
  ec.num_queries = Int(cfg, "num_queries");
  ec.query_batch = Int(cfg, "query_batch");
  ec.trials = Int(cfg, "trials");
  return ec;
}

// ------------------------------------------------------------ clocks

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Minor page faults of the whole process so far.
int64_t MinorFaults() {
  rusage usage;
  return ::getrusage(RUSAGE_SELF, &usage) == 0 ? usage.ru_minflt : 0;
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ------------------------------------------------------------ metrics

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = -1;  // sample count behind a quantile or mean
};
using Metrics = std::map<std::string, Metric>;

// Telemetry counters over one phase, as after - before deltas.
struct TelemetryDelta {
  gp::TelemetrySnapshot before, after;
  // The buffer pool's high-water mark of live bytes when the phase ended.
  // The pool keeps one mark for the whole process and never lowers it, so
  // this covers set-up as well as the phase.
  int64_t process_live_peak_bytes = 0;

  void Begin() { before = gp::Telemetry().Snapshot(); }
  void End() {
    after = gp::Telemetry().Snapshot();
    process_live_peak_bytes = gp::PoolStatsSnapshot().live_peak_bytes;
  }

  int64_t Counter(const std::string& name) const {
    return after.CounterValue(name) - before.CounterValue(name);
  }
  double SpanMs(const std::string& name) const {
    return static_cast<double>(Counter("span/" + name + "/total_us")) / 1e3;
  }
  int64_t SpanCount(const std::string& name) const {
    return Counter("span/" + name + "/count");
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Layer metrics derived from telemetry deltas, normalized per operation
// (request, episode or optimizer step) so they do not depend on run
// length. A layer off the workload's path reads 0.
void AddTelemetryLayerMetrics(const TelemetryDelta& d, double ops,
                              double wall_s, Metrics* out) {
  Metrics& m = *out;
  auto per_op = [&](double v) { return Ratio(v, ops); };
  auto count_per_op = [&](const char* name) {
    return per_op(static_cast<double>(d.Counter(name)));
  };
  m["generator.sample_ms"] = {per_op(d.SpanMs("generator/sample")), "ms"};
  m["generator.reconstruct_ms"] = {per_op(d.SpanMs("generator/reconstruct")),
                                   "ms"};
  m["generator.encode_ms"] = {per_op(d.SpanMs("generator/encode")), "ms"};
  m["generator.unique_edge_frac"] = {
      Ratio(static_cast<double>(d.Counter("generator/recon_unique_edges")),
            static_cast<double>(d.Counter("generator/recon_edges"))),
      "ratio"};
  m["selector.importance_ms"] = {per_op(d.SpanMs("selector/importance")),
                                 "ms"};
  m["selector.knn_ms"] = {
      per_op(d.SpanMs("selector/knn") + d.SpanMs("selector/knn_batch")), "ms"};
  m["selector.scored_pairs"] = {count_per_op("selector/scored_pairs"), "count"};
  m["index.candidate_pairs"] = {count_per_op("index/candidate_pairs"), "count"};
  m["task_graph.forward_ms"] = {
      per_op(d.SpanMs("task_graph/forward") +
             d.SpanMs("task_graph/forward_batch")),
      "ms"};
  m["task_graph.calls"] = {
      per_op(static_cast<double>(d.SpanCount("task_graph/forward") +
                                 d.SpanCount("task_graph/forward_batch"))),
      "count"};
  const double hits = static_cast<double>(d.Counter("augmenter/cache_hits"));
  const double misses =
      static_cast<double>(d.Counter("augmenter/cache_misses"));
  m["augmenter.hit_rate"] = {Ratio(hits, hits + misses), "ratio"};
  m["augmenter.inserts"] = {count_per_op("augmenter/inserts"), "count"};
  m["augmenter.evictions"] = {count_per_op("augmenter/evictions"), "count"};
  m["eval.trial_ms"] = {per_op(d.SpanMs("eval/trial")), "ms"};

  const double prepare_ms = d.SpanMs("eval/batch_prepare");
  const double finish_ms = d.SpanMs("eval/batch_finish");
  m["batch_eval.prepare_ms"] = {per_op(prepare_ms), "ms"};
  m["batch_eval.finish_ms"] = {per_op(finish_ms), "ms"};
  m["batch_eval.busy_frac"] = {Ratio(prepare_ms + finish_ms, wall_s * 1e3),
                               "ratio"};

  // Pre-training steps: forward spans inside a step are the generator's
  // reconstruct and encode, the selection layer and the task graph, all
  // under autograd; the rest of the step is backward and AdamW.
  const bool pretraining = d.SpanCount("pretrain/step") > 0;
  const double step_ms = d.SpanMs("pretrain/step");
  const double pre_ms = d.SpanMs("pretrain/prepare");
  const double forward_ms =
      pretraining
          ? d.SpanMs("generator/reconstruct") + d.SpanMs("generator/encode") +
                d.SpanMs("selector/importance") + d.SpanMs("task_graph/forward")
          : 0.0;
  m["pretrain.prepare_ms"] = {per_op(pre_ms), "ms"};
  m["pretrain.forward_ms"] = {per_op(forward_ms), "ms"};
  m["pretrain.backward_opt_ms"] = {per_op(step_ms - pre_ms - forward_ms),
                                   "ms"};

  const double pool_hits = static_cast<double>(d.Counter("alloc/pool_hits"));
  const double pool_misses =
      static_cast<double>(d.Counter("alloc/pool_misses"));
  m["tensor.pool_hit_rate"] = {Ratio(pool_hits, pool_hits + pool_misses),
                               "ratio"};
  m["tensor.live_peak_mb"] = {
      static_cast<double>(d.process_live_peak_bytes) / (1 << 20), "MB"};
  const double regions = static_cast<double>(d.Counter("parallel/regions"));
  const double serial =
      static_cast<double>(d.Counter("parallel/serial_regions"));
  m["parallel.fanout_frac"] = {Ratio(regions, regions + serial), "ratio"};
}

// The serve and batcher layers, read 0 by workloads that never start a
// server, and the graph_prompter remainder only the in-process evaluation
// can see.
void AddAbsentLayerMetrics(Metrics* out) {
  for (const char* name :
       {"serve.server_ms.p50", "serve.server_ms.p99", "serve.outside_ms.p50",
        "serve.outside_ms.p99", "serve.gen_lag_ms.p99", "serve.gen_lag_ms.max",
        "batcher.wait_ms.mean"}) {
    out->emplace(name, Metric{0.0, "ms"});
  }
  for (const char* name : {"serve.shed", "serve.deadline_exceeded",
                           "batcher.batch_size.mean"}) {
    out->emplace(name, Metric{0.0, "count"});
  }
  for (const char* name :
       {"batcher.flush_window", "batcher.flush_size", "batcher.flush_deadline"}) {
    out->emplace(name, Metric{0.0, "ratio"});
  }
  out->emplace("eval.unattributed_ms", Metric{0.0, "ms"});
}

// Leaf spans of the inference path: the generator, selector and task-graph
// calls. Everything else inside an EvaluateInContext call is glue.
double LeafSpanMs(const TelemetryDelta& d) {
  return d.SpanMs("generator/sample") + d.SpanMs("generator/reconstruct") +
         d.SpanMs("generator/encode") + d.SpanMs("selector/importance") +
         d.SpanMs("selector/knn") + d.SpanMs("selector/knn_batch") +
         d.SpanMs("task_graph/forward") + d.SpanMs("task_graph/forward_batch");
}

// ------------------------------------------------------------ phase

// What one measured phase produced.
struct PhaseResult {
  std::vector<double> latency_ms;  // one per completed operation
  // Work units (see config) completed per second, one sample per
  // operation or per fixed window; the reported throughput is their
  // interquartile mean, so a host stall during part of a run barely
  // moves it.
  std::vector<double> rates;
  double ops = 0.0;                // operations the layer metrics divide by
  double wall_s = 0.0;
  std::vector<Fate> fates;
  Metrics layers;                  // workload-specific layer metrics
  // Non-empty when the phase did not run as specified (an open-loop
  // generator that fell behind its schedule): the run is flagged.
  std::string flag_reason;
};

// ------------------------------------------------------------ tracing

// One traced operation's end-to-end time, split into self time per layer
// and a remainder no layer claims. All values are per operation.
struct TraceAccount {
  std::string e2e;  // what e2e_ms is, in words
  double e2e_ms = 0.0;
  std::map<std::string, double> self_ms;  // per layer
  double remainder_ms = 0.0;              // e2e_ms minus every self time
  int64_t events = 0;
  int64_t dropped = 0;
};

// The thread that recorded the first `span` event, or -1.
int ThreadOf(const std::vector<gp::TraceEvent>& events, const char* span) {
  for (const gp::TraceEvent& e : events) {
    if (std::strcmp(e.name, span) == 0) return e.tid;
  }
  return -1;
}

// The spans of thread `tid` that span_layers assigns to a layer, each
// named after its layer.
std::vector<Span> LayerSpans(const std::vector<gp::TraceEvent>& events,
                             int tid, const JsonValue& span_layers) {
  std::vector<Span> spans;
  for (const gp::TraceEvent& e : events) {
    const JsonValue* layer = span_layers.Find(e.name);
    if (e.tid != tid || layer == nullptr) continue;
    spans.push_back({layer->string_value, e.ts_us, e.ts_us + e.dur_us});
  }
  return spans;
}

// Accounting over one thread's timeline: the operations ran back to back
// on the thread that opened `critical_span`, so the phase window
// [t0_us, t1_us) per operation is one operation's end-to-end time, and
// the thread's self time per layer over the window, per operation, splits
// it.
TraceAccount TimelineAccount(const std::vector<gp::TraceEvent>& events,
                             const JsonValue& span_layers,
                             const char* critical_span, int64_t t0_us,
                             int64_t t1_us, double ops) {
  TraceAccount acc;
  acc.e2e = std::string("phase wall time per operation, on the thread of ") +
            critical_span;
  const double per_op_ms = Ratio(1e-3, ops);
  acc.e2e_ms = static_cast<double>(t1_us - t0_us) * per_op_ms;
  const std::vector<Span> spans =
      LayerSpans(events, ThreadOf(events, critical_span), span_layers);
  for (const auto& [layer, us] : SelfTimes(spans, t0_us, t1_us)) {
    acc.self_ms[layer] = static_cast<double>(us) * per_op_ms;
  }
  return acc;
}

// ------------------------------------------------------------ workloads

class Workload {
 public:
  explicit Workload(const JsonValue& cfg) : cfg_(cfg) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // One full set-up, replacing the state a previous call left. Timed by
  // the caller; everything up to the first timed operation belongs here.
  virtual void Setup() = 0;
  // One timed phase of `seconds`, inputs drawn from `seed`.
  virtual void Measure(double seconds, uint64_t seed) = 0;
  // Untimed: checks the last phase's outputs and derives its metrics.
  virtual PhaseResult Finish() = 0;
  // Splits one operation's end-to-end time in the last phase, which ran
  // traced and whose Finish returned `phase`, into layer self times.
  virtual TraceAccount AccountTrace(const std::vector<gp::TraceEvent>& events,
                                    const JsonValue& span_layers,
                                    const PhaseResult& phase) const = 0;
  virtual void Fingerprint(gp::json::JsonWriter* w) const = 0;

 protected:
  const JsonValue& cfg_;
};

// Runs `fn(i)` for i in [0, n) on `threads` threads (untimed checks).
void ParallelChecks(int64_t n, int threads,
                    const std::function<void(int64_t)>& fn) {
  std::atomic<int64_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) {
    pool.emplace_back([&] {
      for (int64_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// ------------------------------------------------------------ serving

int ConnectUnix(const std::string& path) {
  sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 400; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::usleep(5000);
  }
  ::close(fd);
  return -1;
}

// Counters and histogram (count, sum) pairs from one metrics frame.
struct MetricsFrame {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;

  double CounterDelta(const MetricsFrame& before,
                      const std::string& name) const {
    auto get = [&](const MetricsFrame& f) {
      auto it = f.counters.find(name);
      return it == f.counters.end() ? 0.0 : it->second;
    };
    return get(*this) - get(before);
  }
  double MeanDelta(const MetricsFrame& before, const std::string& name,
                   int64_t* count) const {
    auto get = [&](const MetricsFrame& f) {
      auto it = f.histograms.find(name);
      return it == f.histograms.end() ? std::make_pair(0.0, 0.0)
                                      : it->second;
    };
    const auto [c1, s1] = get(*this);
    const auto [c0, s0] = get(before);
    *count = static_cast<int64_t>(c1 - c0);
    return Ratio(s1 - s0, c1 - c0);
  }
};

// Polls the live kMetricsRequest frame on `stream`.
std::optional<MetricsFrame> PollMetrics(gp::FdStream* stream) {
  gp::Frame request;
  request.type = gp::FrameType::kMetricsRequest;
  if (!gp::WriteFrame(stream, request).ok()) return std::nullopt;
  auto reply = gp::ReadFrame(stream);
  if (!reply.ok() || reply->type != gp::FrameType::kMetricsResponse) {
    return std::nullopt;
  }
  auto doc = gp::json::ParseJson(reply->payload);
  if (!doc.ok()) return std::nullopt;
  MetricsFrame frame;
  if (const JsonValue* counters = doc->Find("counters")) {
    for (const auto& [name, v] : counters->members) {
      frame.counters[name] = v.number_value;
    }
  }
  if (const JsonValue* hists = doc->Find("histograms")) {
    for (const JsonValue& h : hists->elements) {
      const JsonValue* name = h.Find("name");
      const JsonValue* count = h.Find("count");
      const JsonValue* sum = h.Find("sum");
      if (name == nullptr || count == nullptr || sum == nullptr) continue;
      frame.histograms[name->string_value] = {count->number_value,
                                              sum->number_value};
    }
  }
  return frame;
}

// One request as the client tracks it. The sender thread writes `send`
// and `send_us`; the reader thread writes the reply fields; the two never
// share a field, and the fate is composed after both are joined.
struct RequestRecord {
  enum class Send : uint8_t { kNo, kYes, kFailed };
  gp::EvalRequest request;
  int64_t due_us = 0;  // scheduled send time (absolute)
  int64_t send_us = 0;
  Send send = Send::kNo;
  bool replied = false;
  int64_t recv_us = 0;
  int32_t status = 0;
  uint64_t server_us = 0;
  uint64_t acc_mean_bits = 0, acc_std_bits = 0;
  uint64_t degradation_events = 0;
  Fate fate = Fate::kUnsent;  // set by Finish

  Fate Delivery() const {
    if (send == Send::kNo) return Fate::kUnsent;
    if (send == Send::kFailed) return Fate::kTransportError;
    if (!replied) return Fate::kSent;
    return status == static_cast<int32_t>(gp::StatusCode::kOk)
               ? Fate::kReplyOk
               : Fate::kReplyError;
  }
};

// Files one reply under its request; false if it answers no outstanding
// request of this connection (the stream can no longer be trusted).
bool FileReply(const gp::Frame& frame, std::vector<RequestRecord>* conn,
               size_t outstanding) {
  auto resp = gp::DecodeEvalResponse(frame.payload);
  if (!resp.ok()) return false;
  const uint64_t index = resp->request_id & ((uint64_t{1} << 40) - 1);
  if (index >= outstanding ||
      (*conn)[index].request.request_id != resp->request_id ||
      (*conn)[index].replied) {
    return false;
  }
  RequestRecord& r = (*conn)[index];
  r.recv_us = NowUs();
  r.replied = true;
  r.status = resp->status_code;
  r.server_us = resp->server_latency_us;
  r.acc_mean_bits = Bits(resp->accuracy_mean);
  r.acc_std_bits = Bits(resp->accuracy_std);
  r.degradation_events = resp->degradation_events;
  return true;
}

// A client connection: one writer and one reader view of the socket, the
// reader cancellable through a shared pipe.
struct Client {
  Client(const std::string& path, int cancel_fd) : fd(ConnectUnix(path)) {
    CHECK_GE(fd, 0) << "cannot reach the server socket";
    writer = std::make_unique<gp::FdStream>(fd);
    reader = std::make_unique<gp::FdStream>(fd, false, cancel_fd);
  }
  ~Client() {
    writer.reset();
    reader.reset();
    ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  int fd;
  std::unique_ptr<gp::FdStream> writer, reader;
};

// The pipe whose one byte cancels every blocked client read.
struct CancelPipe {
  CancelPipe() { CHECK_EQ(::pipe(fds), 0); }
  ~CancelPipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  CancelPipe(const CancelPipe&) = delete;
  CancelPipe& operator=(const CancelPipe&) = delete;
  void Fire() {
    const char byte = 1;
    CHECK_EQ(::write(fds[1], &byte, 1), 1);
  }
  int fds[2] = {-1, -1};
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const JsonValue& cfg) : Workload(cfg) {}
  ~ServeWorkload() override { Teardown(); }

  void Setup() override {
    Teardown();
    // The sender, the busy-time sampler and one reader per tenant.
    CHECK_EQ(Int(cfg_, "client_threads"), Int(cfg_, "tenants") + 2)
        << "client_threads must pin every client thread the driver starts";
    auto s = std::make_unique<State>();
    s->dataset = MakeDataset(Need(cfg_, "dataset"));
    s->model = MakeModel(Need(cfg_, "model"), s->dataset.graph.feature_dim());
    gp::Pretrain(s->model.get(), s->dataset,
                 MakePretrainConfig(Need(cfg_, "pretrain")));
    const JsonValue& server = Need(cfg_, "server");
    gp::ServeConfig sc;
    sc.workers = Int(server, "workers");
    sc.queue_capacity = Int(server, "queue_capacity");
    sc.batch_window_us = Int(server, "batch_window_us");
    sc.batch_max = Int(server, "batch_max");
    // Off: a tenant's warm augmenter cache would couple each reply to the
    // replies before it, and every reply must be a pure function of its
    // request for the bitwise check against EvaluateInContext.
    sc.persist_tenant_cache = Need(server, "persist_tenant_cache").bool_value;
    s->server =
        std::make_unique<gp::PromptServer>(s->model.get(), &s->dataset, sc);
    // Relative to the checkout root the benchmark runs from, which also
    // keeps the path well inside sun_path's limit.
    std::filesystem::create_directories(".bench_build/run");
    s->socket_path =
        ".bench_build/run/serve-" + std::to_string(::getpid()) + ".sock";
    State* raw = s.get();
    s->server_thread = std::thread([raw] {
      const gp::Status status = raw->server->ServeUnixSocket(raw->socket_path);
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: server error: %s\n",
                     status.ToString().c_str());
        raw->server_failed = true;
      }
    });
    // The first connection doubles as the readiness probe and carries the
    // metrics polls.
    s->metrics_fd = ConnectUnix(s->socket_path);
    CHECK_GE(s->metrics_fd, 0) << "cannot reach the server socket";
    s->metrics_stream = std::make_unique<gp::FdStream>(s->metrics_fd);
    state_ = std::move(s);
  }

  // Open loop: each tenant sends on its own Poisson schedule over its own
  // connection, whether or not earlier replies have come back. One sender
  // thread fires every tenant's requests in due order, a reader thread per
  // connection files the replies, and a sampler reads the batch worker's
  // busy time at the edge of every rate window.
  void Measure(double seconds, uint64_t seed) override {
    State& s = *state_;
    frame0_ = PollMetrics(s.metrics_stream.get());
    tel_.Begin();
    const int tenants = Int(cfg_, "tenants");
    const double rate = Num(cfg_, "rate_rps") / tenants;
    const int64_t duration_us = static_cast<int64_t>(seconds * 1e6);
    const int64_t window_us = Int(cfg_, "rate_window_us");
    records_.assign(tenants, {});
    struct Due {
      int64_t due_us;
      int tenant;
      size_t index;
      std::string wire;
    };
    std::vector<Due> schedule;
    for (int t = 0; t < tenants; ++t) {
      const std::vector<int64_t> due = PoissonSchedule(
          Mix(seed, 0xa11 + static_cast<uint64_t>(t)), rate, duration_us);
      for (size_t i = 0; i < due.size(); ++i) {
        RequestRecord r;
        r.request = MakeRequest(t, static_cast<int64_t>(i), seed);
        r.due_us = due[i];
        schedule.push_back({due[i], t, i, Wire(r.request)});
        records_[t].push_back(std::move(r));
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Due& a, const Due& b) {
                       return a.due_us < b.due_us;
                     });
    CancelPipe cancel;
    std::vector<std::unique_ptr<Client>> clients;
    for (int t = 0; t < tenants; ++t) {
      clients.push_back(
          std::make_unique<Client>(state_->socket_path, cancel.fds[0]));
    }
    // Start a little in the future so the sender is waiting on the first
    // due time before it arrives.
    const int64_t lead_us = 20'000;
    const int64_t t0 = NowUs() + lead_us;
    clock_offset_us_ = NowUs() - gp::TraceNowMicros();
    trace_t0_us_ = t0 - clock_offset_us_;
    for (auto& conn : records_) {
      for (RequestRecord& r : conn) r.due_us += t0;
    }
    std::atomic<int64_t> sent{0}, replies{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < tenants; ++t) {
      std::vector<RequestRecord>* conn = &records_[t];
      Client* client = clients[t].get();
      readers.emplace_back([conn, client, &replies] {
        for (;;) {
          auto frame = gp::ReadFrame(client->reader.get());
          if (!frame.ok() || !FileReply(*frame, conn, conn->size())) return;
          ++replies;
        }
      });
    }
    busy_.clear();
    std::thread sampler([&] {
      for (int64_t edge = t0; edge <= t0 + duration_us; edge += window_us) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::microseconds(edge)));
        busy_.push_back({NowUs(), BatchWorkerBusyUs()});
      }
    });
    // The sender spins to each due time: a sleeping thread's wake-up can
    // lag by milliseconds on a virtualized host, and that lag would read
    // as the program's latency.
    std::thread sender([&] {
      std::vector<bool> broken(tenants, false);
      for (const Due& d : schedule) {
        RequestRecord& r = records_[d.tenant][d.index];
        while (NowUs() < r.due_us) {
        }
        r.send_us = NowUs();
        if (broken[d.tenant] ||
            !clients[d.tenant]->writer->Write(d.wire.data(), d.wire.size())
                 .ok()) {
          r.send = RequestRecord::Send::kFailed;
          broken[d.tenant] = true;
          continue;
        }
        r.send = RequestRecord::Send::kYes;
        ++sent;
      }
    });
    // Replies get a grace period after the last send; then the readers
    // are cancelled and whatever is still outstanding counts as missing.
    sender.join();
    sampler.join();
    const int64_t grace_end = NowUs() + 10'000'000;
    while (replies.load() < sent.load() && NowUs() < grace_end) {
      ::usleep(500);
    }
    trace_t1_us_ = NowUs() - clock_offset_us_;
    cancel.Fire();
    for (std::thread& t : readers) t.join();
    tel_.End();
    frame1_ = PollMetrics(s.metrics_stream.get());
  }

  PhaseResult Finish() override {
    State& s = *state_;
    PhaseResult result;
    // Every OK reply against EvaluateInContext on the same request, bit for
    // bit.
    std::vector<RequestRecord*> ok;
    for (auto& conn : records_) {
      for (RequestRecord& r : conn) {
        r.fate = r.Delivery();
        if (r.fate == Fate::kReplyOk) ok.push_back(&r);
      }
    }
    ParallelChecks(
        static_cast<int64_t>(ok.size()), Int(cfg_, "check_threads"),
        [&](int64_t i) {
          RequestRecord& r = *ok[i];
          const gp::EvalResult ref = gp::EvaluateInContext(
              *s.model, s.dataset, ToEvalConfig(r.request));
          const bool same =
              !ref.deadline_expired &&
              Bits(ref.accuracy_percent.mean) == r.acc_mean_bits &&
              Bits(ref.accuracy_percent.std) == r.acc_std_bits &&
              static_cast<uint64_t>(ref.degradation.TotalEvents()) ==
                  r.degradation_events;
          r.fate = same ? Fate::kVerified : Fate::kMismatch;
        });

    std::vector<double> server_ms, outside_ms, lag_ms;
    std::vector<int64_t> verified_recv_us;
    int64_t first_due = INT64_MAX, last_recv = 0;
    for (const auto& conn : records_) {
      for (const RequestRecord& r : conn) {
        result.fates.push_back(r.fate);
        if (r.fate == Fate::kUnsent) continue;
        first_due = std::min(first_due, r.due_us);
        lag_ms.push_back(static_cast<double>(r.send_us - r.due_us) / 1e3);
        if (r.fate != Fate::kVerified) continue;
        // Latency runs from the due time, so a stalled sender charges its
        // delay to every request it held back.
        result.latency_ms.push_back(static_cast<double>(r.recv_us - r.due_us) /
                                    1e3);
        server_ms.push_back(static_cast<double>(r.server_us) / 1e3);
        outside_ms.push_back(
            static_cast<double>(r.recv_us - r.send_us) / 1e3 -
            static_cast<double>(r.server_us) / 1e3);
        verified_recv_us.push_back(r.recv_us);
        last_recv = std::max(last_recv, r.recv_us);
      }
    }
    result.ops = static_cast<double>(result.latency_ms.size());
    result.wall_s = last_recv > first_due
                        ? static_cast<double>(last_recv - first_due) / 1e6
                        : 0.0;
    // Verified replies per second the batch worker spent in packed
    // evaluations, one rate per window. The offered load is fixed by the
    // seed, so replies per wall second would only echo it; this rate is
    // the serving capacity the program shows at that load.
    result.rates = EventsPerCounterSecond(verified_recv_us, busy_);

    Metrics& m = result.layers;
    const int64_t n_ok = static_cast<int64_t>(server_ms.size());
    m["serve.server_ms.p50"] = {Quantile(server_ms, 0.5), "ms", n_ok};
    m["serve.server_ms.p99"] = {Quantile(server_ms, 0.99), "ms", n_ok};
    m["serve.outside_ms.p50"] = {Quantile(outside_ms, 0.5), "ms", n_ok};
    m["serve.outside_ms.p99"] = {Quantile(outside_ms, 0.99), "ms", n_ok};
    const int64_t n_lag = static_cast<int64_t>(lag_ms.size());
    m["serve.gen_lag_ms.p99"] = {Quantile(lag_ms, 0.99), "ms", n_lag};
    m["serve.gen_lag_ms.max"] = {Quantile(lag_ms, 1.0), "ms", n_lag};
    if (m["serve.gen_lag_ms.p99"].value > Num(cfg_, "gen_lag_flag_ms")) {
      result.flag_reason = "open-loop generator fell behind: lag p99 " +
                           std::to_string(m["serve.gen_lag_ms.p99"].value) +
                           " ms";
    }
    if (frame0_ && frame1_) {
      const MetricsFrame& f0 = *frame0_;
      const MetricsFrame& f1 = *frame1_;
      m["serve.shed"] = {f1.CounterDelta(f0, "serve/shed"), "count"};
      m["serve.deadline_exceeded"] = {
          f1.CounterDelta(f0, "serve/deadline_exceeded"), "count"};
      int64_t batches = 0, waits = 0;
      m["batcher.batch_size.mean"] = {
          f1.MeanDelta(f0, "serve/batch_size", &batches), "count", batches};
      m["batcher.wait_ms.mean"] = {
          f1.MeanDelta(f0, "serve/batch_wait_us", &waits) / 1e3, "ms", waits};
      for (const char* reason : {"window", "size", "deadline"}) {
        m[std::string("batcher.flush_") + reason] = {
            Ratio(f1.CounterDelta(f0, std::string("serve/batch_flush_") +
                                          reason),
                  static_cast<double>(batches)),
            "ratio", batches};
      }
    } else {
      result.flag_reason = "metrics frame unavailable";
    }
    AddTelemetryLayerMetrics(tel_, result.ops, result.wall_s, &m);
    AddAbsentLayerMetrics(&m);
    return result;
  }

  // Per request along its path, averaged over the verified requests: the
  // sender's lag behind the due time (client), the batcher's wait (metrics
  // frame), the rest of the time outside the server's own latency (serve:
  // socket, frame decode, admission, reply write and read), and the self
  // time of every layer span on the batch worker while the request was
  // inside the server. The remainder is server time no span covers.
  TraceAccount AccountTrace(const std::vector<gp::TraceEvent>& events,
                            const JsonValue& span_layers,
                            const PhaseResult& phase) const override {
    const int worker = ThreadOf(events, "eval/batch_prepare");
    const std::vector<Span> segments = SelfSegments(
        LayerSpans(events, worker, span_layers), trace_t0_us_, trace_t1_us_);
    std::vector<int64_t> finish_ends;
    for (const gp::TraceEvent& e : events) {
      if (e.tid == worker && std::strcmp(e.name, "eval/batch_finish") == 0) {
        finish_ends.push_back(e.ts_us + e.dur_us);
      }
    }
    std::sort(finish_ends.begin(), finish_ends.end());
    int64_t n = 0, latency_us = 0, lag_us = 0, outside_us = 0;
    std::map<std::string, int64_t> self_us;
    for (const auto& conn : records_) {
      for (const RequestRecord& r : conn) {
        if (r.fate != Fate::kVerified) continue;
        const int64_t send = r.send_us - clock_offset_us_;
        const int64_t recv = r.recv_us - clock_offset_us_;
        // A reply leaves right after its FinishRequest span: the last one
        // to end before the reply arrived. The server's own latency,
        // measured from batch assembly, reaches back from there.
        const auto it =
            std::upper_bound(finish_ends.begin(), finish_ends.end(), recv);
        const int64_t end =
            it == finish_ends.begin() || *(it - 1) < send ? recv : *(it - 1);
        const int64_t start =
            std::max(send, end - static_cast<int64_t>(r.server_us));
        for (const auto& [layer, us] : SelfTimesWithin(segments, start, end)) {
          self_us[layer] += us;
        }
        latency_us += r.recv_us - r.due_us;
        lag_us += r.send_us - r.due_us;
        outside_us += r.recv_us - r.send_us - static_cast<int64_t>(r.server_us);
        ++n;
      }
    }
    const double per_request_ms = Ratio(1e-3, static_cast<double>(n));
    TraceAccount acc;
    acc.e2e = "mean request latency from the due time";
    acc.e2e_ms = static_cast<double>(latency_us) * per_request_ms;
    const double batcher_ms = phase.layers.at("batcher.wait_ms.mean").value;
    acc.self_ms["client"] = static_cast<double>(lag_us) * per_request_ms;
    acc.self_ms["batcher"] = batcher_ms;
    acc.self_ms["serve"] =
        static_cast<double>(outside_us) * per_request_ms - batcher_ms;
    for (const auto& [layer, us] : self_us) {
      acc.self_ms[layer] += static_cast<double>(us) * per_request_ms;
    }
    return acc;
  }

  void Fingerprint(gp::json::JsonWriter* w) const override {
    const JsonValue& server = Need(cfg_, "server");
    w->Key("server_workers").Int(Int(server, "workers"));
    w->Key("batch_workers").Int(1);
    w->Key("client_threads").Int(Int(cfg_, "client_threads"));
    // One connection per tenant plus the one that polls the metrics frame.
    w->Key("client_connections").Int(Int(cfg_, "tenants") + 1);
  }

 private:
  struct State {
    gp::DatasetBundle dataset;
    std::unique_ptr<gp::GraphPrompterModel> model;
    std::unique_ptr<gp::PromptServer> server;
    std::string socket_path;
    std::thread server_thread;
    std::atomic<bool> server_failed{false};
    int metrics_fd = -1;
    std::unique_ptr<gp::FdStream> metrics_stream;
  };

  void Teardown() {
    if (!state_) return;
    state_->metrics_stream.reset();
    if (state_->metrics_fd >= 0) ::close(state_->metrics_fd);
    state_->server->RequestDrain();
    state_->server_thread.join();
    CHECK(!state_->server_failed.load()) << "server failed";
    state_.reset();
  }

  // Microseconds the batch worker has spent in packed evaluations so far
  // (BatchEvaluation::Prepare and FinishRequest), from their always-on
  // span counters.
  static int64_t BatchWorkerBusyUs() {
    static gp::Counter* prepare =
        gp::Telemetry().GetCounter("span/eval/batch_prepare/total_us");
    static gp::Counter* finish =
        gp::Telemetry().GetCounter("span/eval/batch_finish/total_us");
    return prepare->Value() + finish->Value();
  }

  gp::EvalRequest MakeRequest(int tenant, int64_t index, uint64_t seed) const {
    const JsonValue& shape = Need(cfg_, "request");
    gp::EvalRequest req;
    req.tenant = "tenant-" + std::to_string(tenant);
    req.request_id = (static_cast<uint64_t>(tenant + 1) << 40) |
                     static_cast<uint64_t>(index);
    req.ways = Int(shape, "ways");
    req.shots = Int(shape, "shots");
    req.candidates_per_class = Int(shape, "candidates_per_class");
    req.num_queries = Int(shape, "num_queries");
    req.query_batch = Int(shape, "query_batch");
    req.trials = Int(shape, "trials");
    req.deadline_us = static_cast<uint64_t>(Num(shape, "deadline_us"));
    req.seed = Mix(Mix(seed, static_cast<uint64_t>(tenant)),
                   static_cast<uint64_t>(index));
    return req;
  }

  static gp::EvalConfig ToEvalConfig(const gp::EvalRequest& req) {
    gp::EvalConfig ec;
    ec.ways = req.ways;
    ec.shots = req.shots;
    ec.candidates_per_class = req.candidates_per_class;
    ec.num_queries = req.num_queries;
    ec.query_batch = req.query_batch;
    ec.trials = req.trials;
    ec.seed = req.seed;
    return ec;
  }

  static std::string Wire(const gp::EvalRequest& req) {
    gp::Frame frame;
    frame.type = gp::FrameType::kEvalRequest;
    frame.payload = gp::EncodeEvalRequest(req);
    return gp::EncodeFrame(frame);
  }

  std::unique_ptr<State> state_;
  // The last phase, between Measure and Finish.
  std::vector<std::vector<RequestRecord>> records_;
  std::vector<CounterSample> busy_;  // BatchWorkerBusyUs at window edges
  std::optional<MetricsFrame> frame0_, frame1_;
  TelemetryDelta tel_;
  int64_t clock_offset_us_ = 0;  // NowUs() - TraceNowMicros()
  int64_t trace_t0_us_ = 0, trace_t1_us_ = 0;
};

// ------------------------------------------------------------ eval

class EvalWorkload : public Workload {
 public:
  explicit EvalWorkload(const JsonValue& cfg) : Workload(cfg) {}

  void Setup() override {
    pretrain_data_ = MakeDataset(Need(cfg_, "pretrain_dataset"));
    dataset_ = MakeDataset(Need(cfg_, "dataset"));
    model_ =
        MakeModel(Need(cfg_, "model"), pretrain_data_.graph.feature_dim());
    gp::Pretrain(model_.get(), pretrain_data_,
                 MakePretrainConfig(Need(cfg_, "pretrain")));
  }

  void Measure(double seconds, uint64_t seed) override {
    const gp::EvalConfig base = MakeEvalConfig(Need(cfg_, "episode"));
    gp::Rng rng(Mix(seed, 0xe7a1));
    configs_.clear();
    results_.clear();
    latency_ms_.clear();
    tel_.Begin();
    const int64_t t0 = NowUs();
    trace_t0_us_ = gp::TraceNowMicros();
    const int64_t t_stop = t0 + static_cast<int64_t>(seconds * 1e6);
    while (NowUs() < t_stop) {
      gp::EvalConfig ec = base;
      ec.seed = rng.NextUint64();
      const int64_t start = NowUs();
      gp::EvalResult r;
      {
        GP_TRACE_SPAN("bench/EvaluateInContext");
        r = gp::EvaluateInContext(*model_, dataset_, ec);
      }
      latency_ms_.push_back(static_cast<double>(NowUs() - start) / 1e3);
      configs_.push_back(ec);
      results_.push_back(std::move(r));
    }
    wall_s_ = static_cast<double>(NowUs() - t0) / 1e6;
    trace_t1_us_ = gp::TraceNowMicros();
    tel_.End();
  }

  PhaseResult Finish() override {
    PhaseResult result;
    result.latency_ms = latency_ms_;
    result.wall_s = wall_s_;
    result.ops = static_cast<double>(results_.size());
    for (size_t i = 0; i < results_.size(); ++i) {
      const double queries = static_cast<double>(results_[i].completed_queries);
      result.rates.push_back(queries / (latency_ms_[i] / 1e3));
    }
    // Every episode against EvaluateInContextBatch, bit for bit.
    const int batch = Int(cfg_, "check_batch");
    const int64_t groups =
        (static_cast<int64_t>(configs_.size()) + batch - 1) / batch;
    result.fates.assign(configs_.size(), Fate::kReplyOk);
    ParallelChecks(groups, Int(cfg_, "check_threads"), [&](int64_t g) {
      const size_t lo = static_cast<size_t>(g * batch);
      const size_t hi = std::min(configs_.size(), lo + batch);
      const std::vector<gp::EvalConfig> group(configs_.begin() + lo,
                                              configs_.begin() + hi);
      const std::vector<gp::EvalResult> ref =
          gp::EvaluateInContextBatch(*model_, dataset_, group);
      for (size_t i = lo; i < hi; ++i) {
        result.fates[i] = SameResult(results_[i], ref[i - lo])
                              ? Fate::kVerified
                              : Fate::kMismatch;
      }
    });
    Metrics& m = result.layers;
    AddTelemetryLayerMetrics(tel_, result.ops, result.wall_s, &m);
    double call_ms = 0.0;
    for (double ms : latency_ms_) call_ms += ms;
    m["eval.unattributed_ms"] = {
        Ratio(call_ms - LeafSpanMs(tel_), result.ops), "ms"};
    AddAbsentLayerMetrics(&m);
    return result;
  }

  TraceAccount AccountTrace(const std::vector<gp::TraceEvent>& events,
                            const JsonValue& span_layers,
                            const PhaseResult& phase) const override {
    return TimelineAccount(events, span_layers, "bench/EvaluateInContext",
                           trace_t0_us_, trace_t1_us_, phase.ops);
  }
  void Fingerprint(gp::json::JsonWriter* w) const override {
    w->Key("server_workers").Int(0);
    w->Key("batch_workers").Int(0);
    w->Key("client_threads").Int(1);
    w->Key("client_connections").Int(0);
  }

 private:
  static bool SameResult(const gp::EvalResult& a, const gp::EvalResult& b) {
    if (a.trial_accuracy_percent.size() != b.trial_accuracy_percent.size()) {
      return false;
    }
    for (size_t i = 0; i < a.trial_accuracy_percent.size(); ++i) {
      if (Bits(a.trial_accuracy_percent[i]) !=
          Bits(b.trial_accuracy_percent[i])) {
        return false;
      }
    }
    return Bits(a.accuracy_percent.mean) == Bits(b.accuracy_percent.mean) &&
           Bits(a.accuracy_percent.std) == Bits(b.accuracy_percent.std) &&
           a.degradation.TotalEvents() == b.degradation.TotalEvents() &&
           a.completed_queries == b.completed_queries &&
           a.deadline_expired == b.deadline_expired;
  }

  gp::DatasetBundle pretrain_data_, dataset_;
  std::unique_ptr<gp::GraphPrompterModel> model_;
  // The last phase, between Measure and Finish.
  std::vector<gp::EvalConfig> configs_;
  std::vector<gp::EvalResult> results_;
  std::vector<double> latency_ms_;
  double wall_s_ = 0.0;
  TelemetryDelta tel_;
  int64_t trace_t0_us_ = 0, trace_t1_us_ = 0;
};

// ------------------------------------------------------------ pretrain

class PretrainWorkload : public Workload {
 public:
  explicit PretrainWorkload(const JsonValue& cfg) : Workload(cfg) {}

  void Setup() override {
    dataset_ = MakeDataset(Need(cfg_, "dataset"));
    model_ = MakeModel(Need(cfg_, "model"), dataset_.graph.feature_dim());
    // Warm-up steps fill the buffer pool and lazy state before timing.
    gp::Pretrain(model_.get(), dataset_,
                 MakePretrainConfig(Need(cfg_, "warmup")));
  }

  void Measure(double seconds, uint64_t seed) override {
    gp::PretrainConfig config = MakePretrainConfig(Need(cfg_, "pretrain"));
    config.log_every = 1;  // one loss per step, each checked for finiteness
    gp::Rng rng(Mix(seed, 0x9e7a));
    losses_.clear();
    latency_ms_.clear();
    tel_.Begin();
    const int64_t t0 = NowUs();
    trace_t0_us_ = gp::TraceNowMicros();
    const int64_t t_stop = t0 + static_cast<int64_t>(seconds * 1e6);
    while (NowUs() < t_stop) {
      config.seed = rng.NextUint64();
      const int64_t start = NowUs();
      gp::PretrainCurves curves;
      {
        GP_TRACE_SPAN("bench/Pretrain");
        curves = gp::Pretrain(model_.get(), dataset_, config);
      }
      latency_ms_.push_back(static_cast<double>(NowUs() - start) / 1e3 /
                            config.steps);
      losses_.push_back(std::move(curves.loss));
    }
    wall_s_ = static_cast<double>(NowUs() - t0) / 1e6;
    trace_t1_us_ = gp::TraceNowMicros();
    tel_.End();
  }

  PhaseResult Finish() override {
    const int steps = Int(Need(cfg_, "pretrain"), "steps");
    PhaseResult result;
    result.latency_ms = latency_ms_;
    result.wall_s = wall_s_;
    // Every step's loss must be finite; a step that built no episode logs
    // no loss and counts as missing.
    for (const std::vector<double>& loss : losses_) {
      for (int i = 0; i < steps; ++i) {
        const bool logged = i < static_cast<int>(loss.size());
        result.fates.push_back(!logged                   ? Fate::kSent
                               : std::isfinite(loss[i]) ? Fate::kVerified
                                                        : Fate::kMismatch);
      }
    }
    for (double ms : latency_ms_) result.rates.push_back(1e3 / ms);
    result.ops = static_cast<double>(losses_.size()) * steps;
    AddTelemetryLayerMetrics(tel_, result.ops, result.wall_s,
                             &result.layers);
    AddAbsentLayerMetrics(&result.layers);
    return result;
  }

  TraceAccount AccountTrace(const std::vector<gp::TraceEvent>& events,
                            const JsonValue& span_layers,
                            const PhaseResult& phase) const override {
    return TimelineAccount(events, span_layers, "bench/Pretrain", trace_t0_us_,
                           trace_t1_us_, phase.ops);
  }
  void Fingerprint(gp::json::JsonWriter* w) const override {
    w->Key("server_workers").Int(0);
    w->Key("batch_workers").Int(0);
    w->Key("client_threads").Int(1);
    w->Key("client_connections").Int(0);
  }

 private:
  gp::DatasetBundle dataset_;
  std::unique_ptr<gp::GraphPrompterModel> model_;
  // The last phase, between Measure and Finish.
  std::vector<std::vector<double>> losses_;
  std::vector<double> latency_ms_;
  double wall_s_ = 0.0;
  TelemetryDelta tel_;
  int64_t trace_t0_us_ = 0, trace_t1_us_ = 0;
};

// ------------------------------------------------------------ main

void ScrubProgramEnvironment() {
  // Thread counts, SIMD, index, pipeline and trace settings are pinned by
  // the benchmark; none may leak in from the caller's GP_* variables.
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("GP_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void WriteMetric(const std::string& name, const Metric& m,
                 gp::json::JsonWriter* w) {
  w->Key(name).BeginObject();
  w->Key("value").Double(m.value);
  w->Key("unit").String(m.unit);
  if (m.samples >= 0) w->Key("samples").Int(m.samples);
  w->EndObject();
}

int Main(int argc, char** argv) {
  ScrubProgramEnvironment();
  gp::Flags flags(argc, argv);
  const std::string config_path = flags.GetString("config", "");
  const std::string workload_name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string out_path = flags.GetString("out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  if (config_path.empty() || workload_name.empty() || out_path.empty() ||
      !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: gp_perfbench --config=FILE --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --out=FILE\n");
    return 2;
  }
  std::ifstream in(config_path);
  std::stringstream text;
  text << in.rdbuf();
  auto doc = gp::json::ParseJson(text.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config_path.c_str(),
                 doc.status().ToString().c_str());
    return 2;
  }
  const JsonValue& workloads = Need(*doc, "workloads");
  const JsonValue* cfg = workloads.Find(workload_name);
  if (cfg == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 workload_name.c_str());
    return 2;
  }

  // Pinned before any parallel region runs.
  gp::SetNumThreads(Int(*cfg, "pool_threads"));
  gp::SetPipelineMode(gp::PipelineMode::kOff);

  std::unique_ptr<Workload> workload;
  const std::string kind = Str(*cfg, "kind");
  if (kind == "serve") {
    workload = std::make_unique<ServeWorkload>(*cfg);
  } else if (kind == "eval") {
    workload = std::make_unique<EvalWorkload>(*cfg);
  } else if (kind == "pretrain") {
    workload = std::make_unique<PretrainWorkload>(*cfg);
  } else {
    std::fprintf(stderr, "perfbench: unknown kind %s\n", kind.c_str());
    return 2;
  }

  // Set-up runs several times; its median is setup_s, so a later change
  // that moves work out of the timed phase into set-up still shows.
  std::vector<double> setup_s;
  for (int i = 0; i < Int(*doc, "setup_repeats"); ++i) {
    const int64_t start = NowUs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowUs() - start) / 1e6);
  }

  const int64_t faults_before = MinorFaults();
  workload->Measure(seconds, seed);
  const int64_t phase_faults = MinorFaults() - faults_before;
  // Peak RSS of set-up and the timed phase: read before the output checks,
  // whose concurrent reference evaluations are the benchmark's own cost.
  const double peak_rss_mb =
      static_cast<double>(gp::ReadPeakRssKb()) / 1024.0;
  const PhaseResult phase = workload->Finish();

  std::optional<PhaseResult> traced;
  TraceAccount account;
  if (trace) {
    // Same inputs again, now recorded; the checks run after recording
    // stops so their spans stay out of the trace.
    gp::ClearTraceEvents();
    gp::SetTracingEnabled(true);
    {
      GP_TRACE_SPAN("bench/phase");
      workload->Measure(seconds, seed);
    }
    gp::SetTracingEnabled(false);
    traced = workload->Finish();
    const std::vector<gp::TraceEvent> events = gp::CollectTraceEvents();
    account = workload->AccountTrace(events, Need(*doc, "span_layers"),
                                     *traced);
    account.events = static_cast<int64_t>(events.size());
    account.dropped = gp::DroppedTraceEvents();
    account.remainder_ms = account.e2e_ms;
    for (const auto& [layer, ms] : account.self_ms) {
      account.remainder_ms -= ms;
    }
    if (!trace_out.empty()) {
      const gp::Status status = gp::WriteChromeTrace(trace_out);
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      }
    }
  }

  // ---- end-to-end metrics (untraced phase)
  std::vector<Fate> fates = phase.fates;
  if (traced) fates.insert(fates.end(), traced->fates.begin(), traced->fates.end());
  const Tally tally = TallyFates(fates);
  const Tally untraced_tally = TallyFates(phase.fates);
  const double tail_q = Num(*cfg, "tail_quantile");
  const int64_t n_lat = static_cast<int64_t>(phase.latency_ms.size());
  Metrics e2e;
  e2e["setup_s"] = {Quantile(setup_s, 0.5), "s",
                    static_cast<int64_t>(setup_s.size())};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};
  e2e["ok_frac"] = {1.0 - untraced_tally.fail_frac(), "ratio"};
  e2e["throughput"] = {InterquartileMean(phase.rates), "1/s",
                       static_cast<int64_t>(phase.rates.size())};
  e2e["p50_ms"] = {Quantile(phase.latency_ms, 0.5), "ms", n_lat};

  // ---- per-layer metrics (untraced phase counters + traced self times)
  Metrics layers = phase.layers;
  layers["fail_frac"] = {untraced_tally.fail_frac(), "ratio"};
  layers["latency.samples"] = {static_cast<double>(n_lat), "count"};
  // Buffer-pool misses that reach the kernel: costly, and host-dependent,
  // on a virtualized host.
  layers["tensor.page_faults"] = {
      Ratio(static_cast<double>(phase_faults), phase.ops), "count"};
  // Ungated: on a shared virtualized host the tail follows the host's
  // scheduling hiccups more than the program.
  layers["latency.tail_ms"] = {Quantile(phase.latency_ms, tail_q), "ms",
                               n_lat};
  if (traced) {
    // The traced run's headline against the untraced one, as the cost
    // tracing adds: traced cost over untraced cost, minus 1, where cost is
    // the median latency or the time per unit of work.
    const bool latency_headline = Str(*cfg, "headline") == "p50_ms";
    const double cost_untraced = latency_headline
                                     ? Quantile(phase.latency_ms, 0.5)
                                     : 1.0 / InterquartileMean(phase.rates);
    const double cost_traced = latency_headline
                                   ? Quantile(traced->latency_ms, 0.5)
                                   : 1.0 / InterquartileMean(traced->rates);
    layers["trace_overhead_frac"] = {Ratio(cost_traced, cost_untraced) - 1.0,
                                     "ratio"};
    layers["trace.e2e_ms"] = {account.e2e_ms, "ms"};
    layers["trace.remainder_ms"] = {account.remainder_ms, "ms"};
    // Every workload reports the same layers; those off its path read 0.
    std::set<std::string> layer_names;
    for (const JsonValue& layer : Need(*doc, "trace_layers").elements) {
      layer_names.insert(layer.string_value);
    }
    for (const auto& [layer, ms] : account.self_ms) {
      CHECK(layer_names.count(layer)) << layer << " is not in trace_layers";
    }
    for (const std::string& layer : layer_names) {
      const auto it = account.self_ms.find(layer);
      layers["trace.self_ms." + layer] = {
          it == account.self_ms.end() ? 0.0 : it->second, "ms"};
    }
    layers["trace.dropped_events"] = {static_cast<double>(account.dropped),
                                      "count"};
  }

  // ---- human-readable summary
  std::printf("workload %s seed %llu: %lld attempted, %lld failed\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed()));
  for (const auto& [name, m] : e2e) {
    std::printf("  %-28s %14.6g %-6s%s\n", name.c_str(), m.value,
                m.unit.c_str(),
                m.samples >= 0
                    ? ("  (n=" + std::to_string(m.samples) + ")").c_str()
                    : "");
  }
  if (traced) {
    std::printf("  trace accounting per operation (%lld events, %lld "
                "dropped):\n",
                static_cast<long long>(account.events),
                static_cast<long long>(account.dropped));
    for (const auto& [layer, ms] : account.self_ms) {
      std::printf("    self %-20s %12.4f ms\n", layer.c_str(), ms);
    }
    std::printf("    remainder                 %12.4f ms\n",
                account.remainder_ms);
    std::printf("    = end to end              %12.4f ms (%s)\n",
                account.e2e_ms, account.e2e.c_str());
  }
  std::string flag_reason = phase.flag_reason;
  if (flag_reason.empty() && traced) flag_reason = traced->flag_reason;
  if (!flag_reason.empty()) std::printf("  FLAGGED: %s\n", flag_reason.c_str());

  // ---- result file
  gp::json::JsonWriter w;
  w.BeginObject();
  w.Key("fingerprint").BeginObject();
  w.Key("nproc").Int(static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  w.Key("pool_threads").Int(gp::NumThreads());
  workload->Fingerprint(&w);
  w.Key("simd").String(gp::SimdLevelName(gp::ActiveSimdLevel()));
  w.Key("pipeline").String(gp::PipelineModeName(gp::GetPipelineMode()));
  w.Key("compiler").String(CompilerId());
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("source").String(flags.GetString("source", "unknown"));
  w.Key("workload").String(workload_name);
  w.Key("seed").Int(static_cast<int64_t>(seed));
  w.Key("seconds").Double(seconds);
  w.Key("setup_repeats").Int(Int(*doc, "setup_repeats"));
  w.Key("config");
  WriteValue(*cfg, &w);
  w.EndObject();
  w.Key("trace").Bool(trace);
  w.Key("correct").Bool(tally.mismatch == 0 && tally.unverified == 0);
  w.Key("attempted").Int(tally.attempted);
  w.Key("failed").Int(tally.failed());
  w.Key("failures").BeginObject();
  for (const auto& [reason, n] : tally.ByReason()) w.Key(reason).Int(n);
  w.EndObject();
  w.Key("flagged").Bool(!flag_reason.empty());
  w.Key("flag_reason").String(flag_reason);
  w.Key("setup_s").BeginArray();
  for (double s : setup_s) w.Double(s);
  w.EndArray();
  // The operation-latency ladder behind p50_ms and tail_ms.
  w.Key("latency_ms").BeginObject();
  w.Key("samples").Int(n_lat);
  for (const auto& [label, q] : std::vector<std::pair<const char*, double>>{
           {"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999},
           {"max", 1.0}}) {
    w.Key(label).Double(Quantile(phase.latency_ms, q));
  }
  w.EndObject();
  w.Key("end_to_end").BeginObject();
  for (const auto& [name, m] : e2e) WriteMetric(name, m, &w);
  w.EndObject();
  w.Key("per_layer").BeginObject();
  for (const auto& [name, m] : layers) WriteMetric(name, m, &w);
  w.EndObject();
  if (traced) {
    w.Key("trace_accounting").BeginObject();
    w.Key("e2e").String(account.e2e);
    w.Key("e2e_ms").Double(account.e2e_ms);
    w.Key("remainder_ms").Double(account.remainder_ms);
    w.Key("self_ms").BeginObject();
    for (const auto& [layer, ms] : account.self_ms) w.Key(layer).Double(ms);
    w.EndObject();
    w.Key("events").Int(account.events);
    w.Key("dropped").Int(account.dropped);
    w.EndObject();
  }
  w.EndObject();
  std::ofstream out(out_path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
