// Serving benchmark + chaos soak for the multi-tenant daemon (src/serve).
//
// Four phases over a unix-socket PromptServer:
//   clean      N concurrent clean tenants measure throughput and
//              client-side latency quantiles (serve/clean/{rps,p50_us,
//              p99_us}).
//   chaos      the same tenant mix plus one chaotic tenant injecting
//              corrupted embeddings, transient request failures, and torn
//              frames with mid-stream reconnects. The soak asserts the
//              robustness contract: zero crashes, zero deadline violations
//              for clean tenants, and zero cross-tenant degradation bleed.
//   unbatched  pipelined clients (a depth-D in-flight window per
//              connection) against a batching-off server: the offered-load
//              baseline for the batching comparison.
//   batched    the identical request stream against a server with
//              micro-batching on (--batch-window-us/--batch-max). Reports
//              serve/batched/{rps,speedup,mean_batch_size,...} and
//              compares every reply against the unbatched phase bit for
//              bit (status, accuracy bit patterns, degradation counts,
//              retries) — serve/batched/bitwise_mismatches must be zero.
//
//   ./bench/bench_serving [--tenants=4] [--serve-requests=10000]
//                         [--clean-requests=2000] [--workers=2]
//                         [--compare-requests=480] [--depth=32]
//                         [--batch-window-us=4000] [--batch-max=32]
//
// --serve-requests is the chaos-phase total across all tenants (the soak
// default of 10000 exercises the breaker through many trip/recover
// cycles); --clean-requests sizes the latency-measurement phase and
// --compare-requests the two batching-comparison phases. Writes
// <outdir>/BENCH_serving.json; the committed results/BENCH_serving.json
// (regenerated with --outdir=results) is what scripts/check.sh gates with
// tools/check_bench.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "bench_common.h"
#include "obs/telemetry.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/fault.h"

namespace gp {
namespace {

struct ServingOptions {
  int tenants = 4;
  int chaos_requests = 10000;  // total across all tenants (>= soak floor)
  int clean_requests = 2000;   // total across all tenants
  int workers = 2;
  // Batching-comparison phases: total requests, per-connection in-flight
  // window, and the batcher knobs under test.
  int compare_requests = 480;
  int depth = 32;
  int64_t batch_window_us = 4000;
  int batch_max = 32;
};

struct PhaseStats {
  std::vector<double> latency_us;  // clean-tenant request latencies
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t deadline_violations = 0;  // clean tenants only
  int64_t crashes = 0;              // protocol/transport hard failures
  int64_t torn_frames_sent = 0;
  double elapsed_s = 0.0;
};

double Quantile(std::vector<double>* sorted_inout, double q) {
  if (sorted_inout->empty()) return 0.0;
  std::sort(sorted_inout->begin(), sorted_inout->end());
  const double pos = q * static_cast<double>(sorted_inout->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted_inout->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*sorted_inout)[lo] * (1.0 - frac) + (*sorted_inout)[hi] * frac;
}

int ConnectClient(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::usleep(5000);
  }
  ::close(fd);
  return -1;
}

// One tenant's client loop: sends `requests` framed EvalRequests and reads
// the replies, recording latency (clean tenants) and outcome counters. A
// chaotic tenant additionally tears frames mid-stream and reconnects —
// the server must shrug that off without disturbing anyone else.
void RunClient(const std::string& socket_path, const std::string& tenant,
               bool chaotic, int requests, uint64_t seed,
               std::mutex* stats_mu, PhaseStats* stats) {
  FaultSpec torn_spec;
  torn_spec.serve_torn_prob = chaotic ? 0.25 : 0.0;
  torn_spec.seed = seed;
  FaultInjector torn(torn_spec);

  std::vector<double> latencies;
  int64_t ok = 0, shed = 0, deadline = 0, crashes = 0, torn_sent = 0;

  int fd = ConnectClient(socket_path);
  if (fd < 0) {
    std::lock_guard<std::mutex> lock(*stats_mu);
    ++stats->crashes;
    return;
  }
  auto stream = std::make_unique<FdStream>(fd, /*owns_fd=*/true);

  for (int r = 0; r < requests; ++r) {
    EvalRequest req;
    req.tenant = tenant;
    req.request_id = seed * 1000000 + static_cast<uint64_t>(r);
    req.ways = 3;
    req.shots = 2;
    req.candidates_per_class = 4;
    req.num_queries = 4;
    req.query_batch = 2;
    req.trials = 1;
    req.seed = req.request_id + 1;
    if (chaotic) {
      req.fault_spec = "embed_nan=0.4,serve_fail=0.15,seed=" +
                       std::to_string(seed + 31);
    } else {
      // Clean traffic carries a generous explicit budget; the soak gate
      // requires zero deadline violations for these tenants.
      req.deadline_us = 10'000'000;
    }
    Frame frame;
    frame.type = FrameType::kEvalRequest;
    frame.payload = EncodeEvalRequest(req);
    const std::string wire = EncodeFrame(frame);

    const int64_t torn_bytes = torn.TornFrameBytes(wire.size());
    if (torn_bytes >= 0) {
      (void)stream->Write(wire.data(), static_cast<size_t>(torn_bytes));
      ++torn_sent;
      const int new_fd = ConnectClient(socket_path);
      if (new_fd < 0) {
        ++crashes;
        break;
      }
      stream = std::make_unique<FdStream>(new_fd, /*owns_fd=*/true);
      --r;  // retry on the fresh connection
      continue;
    }

    Stopwatch sw;
    if (!stream->Write(wire.data(), wire.size()).ok()) {
      ++crashes;
      break;
    }
    auto reply = ReadFrame(stream.get());
    if (!reply.ok()) {
      ++crashes;
      break;
    }
    auto resp = DecodeEvalResponse(reply->payload);
    if (!resp.ok() || resp->request_id != req.request_id) {
      ++crashes;
      break;
    }
    const double us = sw.ElapsedMicros();
    const auto code = static_cast<StatusCode>(resp->status_code);
    if (code == StatusCode::kOk) {
      ++ok;
      if (!chaotic) latencies.push_back(us);
    } else if (code == StatusCode::kUnavailable) {
      // Shed by admission control or retry exhaustion — allowed for any
      // tenant under load; not a contract violation.
      ++shed;
    } else if (code == StatusCode::kDeadlineExceeded) {
      if (!chaotic) ++deadline;
    } else if (!chaotic) {
      // Clean traffic must never see any other error.
      ++crashes;
    }
  }

  std::lock_guard<std::mutex> lock(*stats_mu);
  stats->latency_us.insert(stats->latency_us.end(), latencies.begin(),
                           latencies.end());
  stats->ok += ok;
  stats->shed += shed;
  stats->deadline_violations += deadline;
  stats->crashes += crashes;
  stats->torn_frames_sent += torn_sent;
}

// Everything of a reply the batching determinism contract covers: status,
// accuracy *bit patterns* (exact-equality on doubles via their bits),
// degradation accounting, and retries. Timing fields (ms_per_query,
// server_latency_us) are excluded by design.
struct ReplyRecord {
  int32_t status_code = 0;
  uint64_t accuracy_mean_bits = 0;
  uint64_t accuracy_std_bits = 0;
  uint64_t degradation_events = 0;
  uint32_t retries = 0;
  std::string message;

  bool operator==(const ReplyRecord& o) const {
    return status_code == o.status_code &&
           accuracy_mean_bits == o.accuracy_mean_bits &&
           accuracy_std_bits == o.accuracy_std_bits &&
           degradation_events == o.degradation_events &&
           retries == o.retries && message == o.message;
  }
};

// One comparison-phase client: keeps `depth` requests in flight on a
// single connection (send a window, then lockstep read-one/send-one), so
// the server sees the same offered load whether or not it coalesces.
// Replies may arrive out of request order from a batching-off server's
// workers, so latency and records match by request id.
void RunPipelinedClient(const std::string& socket_path,
                        const std::string& tenant, int requests, int depth,
                        uint64_t id_base, std::mutex* stats_mu,
                        PhaseStats* stats,
                        std::map<uint64_t, ReplyRecord>* replies) {
  const int fd = ConnectClient(socket_path);
  if (fd < 0) {
    std::lock_guard<std::mutex> lock(*stats_mu);
    ++stats->crashes;
    return;
  }
  FdStream stream(fd, /*owns_fd=*/true);
  Stopwatch clock;
  std::map<uint64_t, double> send_us;
  std::map<uint64_t, ReplyRecord> local;
  std::vector<double> latencies;
  int64_t ok = 0, shed = 0, deadline = 0, crashes = 0;

  auto send_one = [&](int r) -> bool {
    EvalRequest req;
    req.tenant = tenant;
    req.request_id = id_base + static_cast<uint64_t>(r);
    req.ways = 3;
    req.shots = 1;
    req.candidates_per_class = 4;
    req.num_queries = 2;
    req.query_batch = 2;
    req.trials = 1;
    // Deterministic per-id seed, identical across the two phases so every
    // reply has an exact counterpart to compare against.
    req.seed = req.request_id * 2654435761ull + 12345;
    req.deadline_us = 30'000'000;
    Frame frame;
    frame.type = FrameType::kEvalRequest;
    frame.payload = EncodeEvalRequest(req);
    const std::string wire = EncodeFrame(frame);
    send_us[req.request_id] = clock.ElapsedMicros();
    return stream.Write(wire.data(), wire.size()).ok();
  };

  int sent = 0;
  const int window = std::min(depth, requests);
  for (; sent < window; ++sent) {
    if (!send_one(sent)) {
      ++crashes;
      break;
    }
  }
  int received = 0;
  while (received < sent) {
    auto reply = ReadFrame(&stream);
    if (!reply.ok()) {
      ++crashes;
      break;
    }
    auto resp = DecodeEvalResponse(reply->payload);
    if (!resp.ok()) {
      ++crashes;
      break;
    }
    ++received;
    const auto it = send_us.find(resp->request_id);
    if (it != send_us.end()) {
      latencies.push_back(clock.ElapsedMicros() - it->second);
    }
    ReplyRecord rec;
    rec.status_code = resp->status_code;
    std::memcpy(&rec.accuracy_mean_bits, &resp->accuracy_mean,
                sizeof(double));
    std::memcpy(&rec.accuracy_std_bits, &resp->accuracy_std, sizeof(double));
    rec.degradation_events = resp->degradation_events;
    rec.retries = resp->retries;
    rec.message = resp->message;
    local[resp->request_id] = std::move(rec);
    const auto code = static_cast<StatusCode>(resp->status_code);
    if (code == StatusCode::kOk) {
      ++ok;
    } else if (code == StatusCode::kUnavailable) {
      ++shed;
    } else if (code == StatusCode::kDeadlineExceeded) {
      ++deadline;
    } else {
      ++crashes;
    }
    if (sent < requests && send_one(sent)) ++sent;
  }

  std::lock_guard<std::mutex> lock(*stats_mu);
  stats->latency_us.insert(stats->latency_us.end(), latencies.begin(),
                           latencies.end());
  stats->ok += ok;
  stats->shed += shed;
  stats->deadline_violations += deadline;
  stats->crashes += crashes;
  replies->insert(local.begin(), local.end());
}

// One batching-comparison phase: pipelined clients over a fresh server,
// batching on or off via `batch_window_us`. The warm per-tenant augmenter
// cache is disabled for these phases only — it couples a reply to the
// order of its predecessors, which legitimately differs between the
// batching-off and batched schedules, and the point here is that every
// reply is a pure function of its request.
PhaseStats RunComparePhase(const GraphPrompterModel& model,
                           const DatasetBundle& dataset,
                           const ServingOptions& opt, int tenants,
                           int per_tenant, int64_t batch_window_us,
                           std::map<uint64_t, ReplyRecord>* replies) {
  ServeConfig sc;
  sc.workers = opt.workers;
  sc.queue_capacity = std::max(32, tenants * opt.depth * 2);
  sc.default_deadline_us = 5'000'000;
  sc.persist_tenant_cache = false;
  sc.batch_window_us = batch_window_us;
  sc.batch_max = opt.batch_max;
  PromptServer server(&model, &dataset, sc);

  const std::string path =
      "/tmp/gp_bench_serving_" + std::to_string(::getpid()) +
      (batch_window_us > 0 ? "_batched" : "_unbatched") + ".sock";
  ::unlink(path.c_str());

  std::atomic<bool> server_failed{false};
  std::thread server_thread([&] {
    const Status status = server.ServeUnixSocket(path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_serving: server error: %s\n",
                   status.ToString().c_str());
      server_failed.store(true);
    }
  });

  PhaseStats stats;
  std::mutex stats_mu;
  Stopwatch phase_timer;
  std::vector<std::thread> clients;
  for (int t = 0; t < tenants; ++t) {
    clients.emplace_back(RunPipelinedClient, path,
                         "tenant-" + std::to_string(t), per_tenant, opt.depth,
                         static_cast<uint64_t>(t + 1) * 10'000'000ull,
                         &stats_mu, &stats, replies);
  }
  for (std::thread& c : clients) c.join();
  stats.elapsed_s = phase_timer.ElapsedSeconds();

  server.RequestDrain();
  server_thread.join();
  if (server_failed.load()) ++stats.crashes;
  ::unlink(path.c_str());
  return stats;
}

// Runs one phase against a fresh server (fresh tenants, so the
// cross-tenant accounting starts from zero) and returns its stats plus
// the final per-tenant snapshot.
PhaseStats RunPhase(const GraphPrompterModel& model,
                    const DatasetBundle& dataset, const ServingOptions& opt,
                    bool chaos, uint64_t seed,
                    std::vector<PromptServer::TenantSnapshot>* snapshot) {
  ServeConfig sc;
  sc.workers = opt.workers;
  sc.queue_capacity = std::max(16, opt.tenants * 4);
  sc.default_deadline_us = 5'000'000;
  sc.breaker.trip_threshold = 3;
  sc.breaker.cooldown_requests = 8;
  PromptServer server(&model, &dataset, sc);

  const std::string path =
      "/tmp/gp_bench_serving_" + std::to_string(::getpid()) +
      (chaos ? "_chaos" : "_clean") + ".sock";
  ::unlink(path.c_str());

  std::atomic<bool> server_failed{false};
  std::thread server_thread([&] {
    const Status status = server.ServeUnixSocket(path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_serving: server error: %s\n",
                   status.ToString().c_str());
      server_failed.store(true);
    }
  });

  const int total = chaos ? opt.chaos_requests : opt.clean_requests;
  const int per_tenant = std::max(1, total / opt.tenants);

  PhaseStats stats;
  std::mutex stats_mu;
  Stopwatch phase_timer;
  std::vector<std::thread> clients;
  for (int t = 0; t < opt.tenants; ++t) {
    const bool chaotic = chaos && t == opt.tenants - 1;
    clients.emplace_back(RunClient, path, "tenant-" + std::to_string(t),
                         chaotic, per_tenant, seed + static_cast<uint64_t>(t),
                         &stats_mu, &stats);
  }
  for (std::thread& c : clients) c.join();
  stats.elapsed_s = phase_timer.ElapsedSeconds();

  server.RequestDrain();
  server_thread.join();
  *snapshot = server.SnapshotTenants();
  if (server_failed.load()) ++stats.crashes;
  ::unlink(path.c_str());
  return stats;
}

void Run(const bench::Env& env, const ServingOptions& opt,
         BenchReporter* report) {
  DatasetBundle dataset = MakeArxivSim(env.scale, env.seed + 1);
  GraphPrompterConfig config =
      FullGraphPrompterConfig(dataset.graph.feature_dim(), env.seed + 2);
  // Keep per-request work small so the soak covers many requests (and many
  // breaker trip/recover cycles) rather than a few slow evaluations.
  config.embedding_dim = 24;
  config.sampler.max_nodes = 12;
  CHECK_OK(Validate(config));
  auto model = bench::MakePretrained(config, dataset, env);

  report->AddConfig("tenants", static_cast<int64_t>(opt.tenants));
  report->AddConfig("serve_requests", static_cast<int64_t>(opt.chaos_requests));
  report->AddConfig("clean_requests", static_cast<int64_t>(opt.clean_requests));
  report->AddConfig("workers", static_cast<int64_t>(opt.workers));
  report->AddConfig("compare_requests",
                    static_cast<int64_t>(opt.compare_requests));
  report->AddConfig("depth", static_cast<int64_t>(opt.depth));
  report->AddConfig("batch_window_us", opt.batch_window_us);
  report->AddConfig("batch_max", static_cast<int64_t>(opt.batch_max));

  // ---- Phase 1: clean throughput / latency -------------------------------
  std::vector<PromptServer::TenantSnapshot> clean_snapshot;
  PhaseStats clean = RunPhase(*model, dataset, opt, /*chaos=*/false,
                              env.seed + 100, &clean_snapshot);
  const double clean_rps =
      clean.elapsed_s > 0 ? static_cast<double>(clean.ok) / clean.elapsed_s
                          : 0.0;
  const double p50 = Quantile(&clean.latency_us, 0.50);
  const double p99 = Quantile(&clean.latency_us, 0.99);
  report->AddMetric("serve/clean/rps", clean_rps, "req/s");
  report->AddMetric("serve/clean/p50_us", p50, "us");
  report->AddMetric("serve/clean/p99_us", p99, "us");
  report->AddMetric("serve/clean/ok", static_cast<double>(clean.ok), "req");
  report->AddMetric("serve/clean/shed", static_cast<double>(clean.shed),
                    "req");

  // ---- Phase 2: chaos soak ----------------------------------------------
  std::vector<PromptServer::TenantSnapshot> chaos_snapshot;
  PhaseStats chaos = RunPhase(*model, dataset, opt, /*chaos=*/true,
                              env.seed + 200, &chaos_snapshot);
  const double chaos_rps =
      chaos.elapsed_s > 0 ? static_cast<double>(chaos.ok) / chaos.elapsed_s
                          : 0.0;

  // Cross-tenant bleed: degradation or breaker trips charged to any tenant
  // other than the chaotic one ("tenant-<last>").
  const std::string chaos_tenant =
      "tenant-" + std::to_string(opt.tenants - 1);
  int64_t bleed = 0;
  int64_t chaos_tenant_degradation = 0;
  int64_t chaos_tenant_trips = 0;
  for (const auto& t : chaos_snapshot) {
    if (t.name == chaos_tenant) {
      chaos_tenant_degradation = t.degradation_events;
      chaos_tenant_trips = t.breaker_trips;
    } else {
      bleed += t.degradation_events + t.breaker_trips;
    }
  }

  report->AddMetric("serve/chaos/rps", chaos_rps, "req/s");
  report->AddMetric("serve/chaos/ok", static_cast<double>(chaos.ok), "req");
  report->AddMetric("serve/chaos/shed", static_cast<double>(chaos.shed),
                    "req");
  report->AddMetric("serve/chaos/torn_frames_sent",
                    static_cast<double>(chaos.torn_frames_sent), "frames");
  report->AddMetric("serve/chaos/faulty_tenant_degradation_events",
                    static_cast<double>(chaos_tenant_degradation), "events");
  report->AddMetric("serve/chaos/faulty_tenant_breaker_trips",
                    static_cast<double>(chaos_tenant_trips), "trips");
  // The three chaos metrics scripts/check.sh gates to exactly zero:
  report->AddMetric("serve/chaos/cross_tenant_degradation_events",
                    static_cast<double>(bleed), "events");
  report->AddMetric("serve/chaos/crashes",
                    static_cast<double>(clean.crashes + chaos.crashes),
                    "crashes");
  report->AddMetric("serve/chaos/clean_tenant_deadline_violations",
                    static_cast<double>(chaos.deadline_violations +
                                        clean.deadline_violations),
                    "req");

  // ---- Phases 3+4: micro-batching speedup + bitwise parity ---------------
  const int compare_tenants = 2;
  const int per_tenant =
      std::max(1, opt.compare_requests / compare_tenants);

  std::map<uint64_t, ReplyRecord> unbatched_replies;
  PhaseStats unbatched =
      RunComparePhase(*model, dataset, opt, compare_tenants, per_tenant,
                      /*batch_window_us=*/0, &unbatched_replies);
  const double unbatched_rps =
      unbatched.elapsed_s > 0
          ? static_cast<double>(unbatched.ok) / unbatched.elapsed_s
          : 0.0;
  const double unbatched_p50 = Quantile(&unbatched.latency_us, 0.50);
  const double unbatched_p99 = Quantile(&unbatched.latency_us, 0.99);

  const TelemetrySnapshot before_batched = Telemetry().Snapshot();
  std::map<uint64_t, ReplyRecord> batched_replies;
  PhaseStats batched =
      RunComparePhase(*model, dataset, opt, compare_tenants, per_tenant,
                      opt.batch_window_us, &batched_replies);
  const TelemetrySnapshot after_batched = Telemetry().Snapshot();
  const double batched_rps =
      batched.elapsed_s > 0
          ? static_cast<double>(batched.ok) / batched.elapsed_s
          : 0.0;
  const double batched_p50 = Quantile(&batched.latency_us, 0.50);
  const double batched_p99 = Quantile(&batched.latency_us, 0.99);
  const double speedup = unbatched_rps > 0 ? batched_rps / unbatched_rps : 0.0;

  // Bitwise parity: every id must appear in both phases with an identical
  // record (a reply missing from either side counts as a mismatch).
  int64_t mismatches = 0;
  for (const auto& [id, rec] : unbatched_replies) {
    const auto it = batched_replies.find(id);
    if (it == batched_replies.end() || !(it->second == rec)) ++mismatches;
  }
  for (const auto& [id, rec] : batched_replies) {
    if (unbatched_replies.find(id) == unbatched_replies.end()) ++mismatches;
  }

  // Batch-shape telemetry, as deltas across the batched phase.
  const int64_t batches_delta =
      after_batched.CounterValue("serve/batches") -
      before_batched.CounterValue("serve/batches");
  auto hist_delta_mean = [&](const std::string& name) {
    const HistogramSample* b = before_batched.FindHistogram(name);
    const HistogramSample* a = after_batched.FindHistogram(name);
    const double sum = (a != nullptr ? a->sum : 0.0) -
                       (b != nullptr ? b->sum : 0.0);
    const int64_t count = (a != nullptr ? a->total_count : 0) -
                          (b != nullptr ? b->total_count : 0);
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  };
  const double mean_batch_size = hist_delta_mean("serve/batch_size");
  const double mean_batch_wait_us = hist_delta_mean("serve/batch_wait_us");

  report->AddMetric("serve/unbatched/rps", unbatched_rps, "req/s");
  report->AddMetric("serve/unbatched/p50_us", unbatched_p50, "us");
  report->AddMetric("serve/unbatched/p99_us", unbatched_p99, "us");
  report->AddMetric("serve/unbatched/ok",
                    static_cast<double>(unbatched.ok), "req");
  report->AddMetric("serve/batched/rps", batched_rps, "req/s");
  report->AddMetric("serve/batched/p50_us", batched_p50, "us");
  report->AddMetric("serve/batched/p99_us", batched_p99, "us");
  report->AddMetric("serve/batched/ok", static_cast<double>(batched.ok),
                    "req");
  report->AddMetric("serve/batched/speedup", speedup, "x");
  report->AddMetric("serve/batched/mean_batch_size", mean_batch_size, "req");
  report->AddMetric("serve/batched/mean_batch_wait_us", mean_batch_wait_us,
                    "us");
  report->AddMetric("serve/batched/batches",
                    static_cast<double>(batches_delta), "batches");
  for (const char* reason : {"window", "size", "deadline", "barrier",
                             "drain"}) {
    const std::string name = std::string("serve/batch_flush_") + reason;
    report->AddMetric(name + "_delta",
                      static_cast<double>(after_batched.CounterValue(name) -
                                          before_batched.CounterValue(name)),
                      "batches");
  }
  // The batched phase's metrics scripts/check.sh gates to exactly zero:
  report->AddMetric("serve/batched/bitwise_mismatches",
                    static_cast<double>(mismatches), "replies");
  report->AddMetric("serve/batched/clean_deadline_violations",
                    static_cast<double>(batched.deadline_violations +
                                        unbatched.deadline_violations),
                    "req");
  report->AddMetric("serve/batched/crashes",
                    static_cast<double>(batched.crashes + unbatched.crashes),
                    "crashes");

  TablePrinter table({"phase", "ok", "shed", "rps", "p50 us", "p99 us"});
  table.AddRow({"clean", std::to_string(clean.ok), std::to_string(clean.shed),
                TablePrinter::Num(clean_rps), TablePrinter::Num(p50),
                TablePrinter::Num(p99)});
  table.AddRow({"chaos", std::to_string(chaos.ok), std::to_string(chaos.shed),
                TablePrinter::Num(chaos_rps), "-", "-"});
  table.AddRow({"unbatched", std::to_string(unbatched.ok),
                std::to_string(unbatched.shed),
                TablePrinter::Num(unbatched_rps),
                TablePrinter::Num(unbatched_p50),
                TablePrinter::Num(unbatched_p99)});
  table.AddRow({"batched", std::to_string(batched.ok),
                std::to_string(batched.shed), TablePrinter::Num(batched_rps),
                TablePrinter::Num(batched_p50),
                TablePrinter::Num(batched_p99)});
  std::printf("\nServing throughput, %d tenants (%s):\n", opt.tenants,
              dataset.name.c_str());
  table.Print();
  bench::WriteCsvOrWarn(table, env.outdir + "/serving.csv");

  std::printf(
      "\nChaos soak: %lld ok, %lld shed, %lld torn frames; faulty tenant "
      "degradation=%lld trips=%lld; cross-tenant bleed=%lld crashes=%lld "
      "clean deadline violations=%lld\n",
      static_cast<long long>(chaos.ok), static_cast<long long>(chaos.shed),
      static_cast<long long>(chaos.torn_frames_sent),
      static_cast<long long>(chaos_tenant_degradation),
      static_cast<long long>(chaos_tenant_trips),
      static_cast<long long>(bleed),
      static_cast<long long>(clean.crashes + chaos.crashes),
      static_cast<long long>(chaos.deadline_violations +
                             clean.deadline_violations));

  std::printf(
      "\nBatching: %.1f -> %.1f req/s (%.2fx) at mean batch size %.2f "
      "(window %lldus, max %d, depth %d); bitwise mismatches=%lld "
      "deadline violations=%lld\n",
      unbatched_rps, batched_rps, speedup, mean_batch_size,
      static_cast<long long>(opt.batch_window_us), opt.batch_max, opt.depth,
      static_cast<long long>(mismatches),
      static_cast<long long>(batched.deadline_violations +
                             unbatched.deadline_violations));
}

}  // namespace
}  // namespace gp

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  gp::ServingOptions opt;
  opt.tenants = static_cast<int>(flags.GetInt("tenants", opt.tenants));
  opt.chaos_requests =
      static_cast<int>(flags.GetInt("serve-requests", opt.chaos_requests));
  opt.clean_requests =
      static_cast<int>(flags.GetInt("clean-requests", opt.clean_requests));
  opt.workers = static_cast<int>(flags.GetInt("workers", opt.workers));
  opt.compare_requests =
      static_cast<int>(flags.GetInt("compare-requests", opt.compare_requests));
  opt.depth = static_cast<int>(flags.GetInt("depth", opt.depth));
  opt.batch_window_us = flags.GetInt("batch-window-us", opt.batch_window_us);
  opt.batch_max = static_cast<int>(flags.GetInt("batch-max", opt.batch_max));
  if (opt.tenants < 2) opt.tenants = 2;
  if (opt.depth < 1) opt.depth = 1;

  gp::bench::Env env = gp::bench::ParseEnv(argc, argv);
  // The serving working set: a small graph over which concurrent few-shot
  // episodes sample heavily-overlapping neighborhoods. This is the regime
  // micro-batching targets -- the packed union deduplicates repeated edges
  // across requests, so the scale matters to the speedup gate. --scale
  // still overrides.
  if (flags.GetDouble("scale", -1.0) < 0.0) env.scale = 0.15;
  gp::BenchReporter report("serving");
  report.AddConfig("scale", env.scale);
  report.AddConfig("pretrain_steps",
                   static_cast<int64_t>(env.pretrain_steps));
  report.AddConfig("seed", static_cast<int64_t>(env.seed));

  gp::Run(env, opt, &report);

  const gp::Status status = report.WriteJson(env.outdir);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
  const gp::Status obs_status = gp::ExportConfiguredObservability();
  if (!obs_status.ok()) {
    std::fprintf(stderr, "warning: %s\n", obs_status.ToString().c_str());
  }
  return 0;
}
