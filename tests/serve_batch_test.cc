// Micro-batching determinism pins (DESIGN.md §11): the batched inference
// path must be bitwise identical to the single-request path at every
// layer —
//   - core: EvaluateInContextBatch vs sequential EvaluateInContext,
//   - scheduler: MicroBatcher flush reasons, FIFO order, capacity shed,
//   - server: a batching socket server vs an unbatched one over the same
//     request stream, reply for reply, and each vs pipe mode over a chaos
//     log with warm tenant caches, reply for reply and tenant for tenant,
//   - plus the metrics frame and the FdStream write-side stall bound that
//     ride along with the batching subsystem.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_eval.h"
#include "core/graph_prompter.h"
#include "data/datasets.h"
#include "serve/batcher.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_chaos_log.h"
#include "tensor/buffer_pool.h"
#include "util/fault.h"

namespace gp {
namespace {

GraphPrompterConfig TinyConfig(int feature_dim) {
  GraphPrompterConfig config = FullGraphPrompterConfig(feature_dim, 7);
  config.embedding_dim = 16;
  config.recon_hidden = 16;
  config.selection_hidden = 16;
  config.sampler.max_nodes = 8;
  return config;
}

EvalConfig TinyEval(uint64_t seed) {
  EvalConfig ec;
  ec.ways = 3;
  ec.shots = 2;
  ec.candidates_per_class = 4;
  ec.num_queries = 4;
  ec.query_batch = 2;
  ec.trials = 2;
  ec.seed = seed;
  return ec;
}

class BatchEvalTest : public ::testing::Test {
 protected:
  BatchEvalTest()
      : dataset_(MakeArxivSim(0.25, 2)),
        model_(TinyConfig(dataset_.graph.feature_dim())) {}

  DatasetBundle dataset_;
  GraphPrompterModel model_;
};

void ExpectBitwiseEqual(const EvalResult& batched, const EvalResult& serial,
                        const std::string& what) {
  // Bitwise, not near: batching must not perturb the computation. Timing
  // fields (ms_per_query) are excluded by contract.
  EXPECT_EQ(batched.accuracy_percent.mean, serial.accuracy_percent.mean)
      << what;
  EXPECT_EQ(batched.accuracy_percent.std, serial.accuracy_percent.std)
      << what;
  ASSERT_EQ(batched.trial_accuracy_percent.size(),
            serial.trial_accuracy_percent.size())
      << what;
  for (size_t t = 0; t < serial.trial_accuracy_percent.size(); ++t) {
    EXPECT_EQ(batched.trial_accuracy_percent[t],
              serial.trial_accuracy_percent[t])
        << what << " trial " << t;
  }
  EXPECT_EQ(batched.degradation.TotalEvents(),
            serial.degradation.TotalEvents())
      << what;
  EXPECT_EQ(batched.completed_queries, serial.completed_queries) << what;
  EXPECT_EQ(batched.deadline_expired, serial.deadline_expired) << what;
}

// The core contract: N requests packed through one BatchEvaluation equal
// N standalone EvaluateInContext calls, bit for bit, across differing
// episode shapes and seeds in the same batch.
TEST_F(BatchEvalTest, PackedBatchMatchesSequentialBitwise) {
  std::vector<EvalConfig> configs;
  configs.push_back(TinyEval(11));
  configs.push_back(TinyEval(12));
  EvalConfig wide = TinyEval(13);
  wide.candidates_per_class = 6;
  wide.num_queries = 6;
  configs.push_back(wide);
  EvalConfig deep = TinyEval(14);
  deep.trials = 3;
  deep.query_batch = 3;
  configs.push_back(deep);

  const std::vector<EvalResult> batched =
      EvaluateInContextBatch(model_, dataset_, configs);
  ASSERT_EQ(batched.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const EvalResult serial = EvaluateInContext(model_, dataset_, configs[i]);
    ExpectBitwiseEqual(batched[i], serial,
                       "request " + std::to_string(i));
  }
}

// A request whose deadline is already hopeless expires identically on
// both paths: the first boundary check trips before any trial completes,
// so the (empty) accuracy and the expired flag match bitwise.
TEST_F(BatchEvalTest, HopelessDeadlineExpiresIdentically) {
  std::vector<EvalConfig> configs = {TinyEval(21), TinyEval(22)};
  configs[1].deadline_us = 1;

  const std::vector<EvalResult> batched =
      EvaluateInContextBatch(model_, dataset_, configs);
  const EvalResult serial0 = EvaluateInContext(model_, dataset_, configs[0]);
  const EvalResult serial1 = EvaluateInContext(model_, dataset_, configs[1]);
  ExpectBitwiseEqual(batched[0], serial0, "clean neighbor");
  EXPECT_TRUE(batched[1].deadline_expired);
  ExpectBitwiseEqual(batched[1], serial1, "expired request");
}

// Stage-3 options are resolved per request: disabling the augmenter for
// one request of a batch must reproduce the standalone disabled run and
// leave its neighbors untouched.
TEST_F(BatchEvalTest, PerRequestAugmenterDisableMatchesStandalone) {
  std::vector<EvalConfig> configs = {TinyEval(31), TinyEval(32)};
  BatchEvaluation eval(model_, dataset_, configs);
  eval.Prepare();
  BatchStage3Options plain;
  BatchStage3Options disabled;
  disabled.disable_augmenter = true;
  const EvalResult batched0 = eval.FinishRequest(0, plain);
  const EvalResult batched1 = eval.FinishRequest(1, disabled);

  const EvalResult serial0 = EvaluateInContext(model_, dataset_, configs[0]);
  BatchEvaluation alone(model_, dataset_, {configs[1]});
  alone.Prepare();
  const EvalResult serial1 = alone.FinishRequest(0, disabled);
  ExpectBitwiseEqual(batched0, serial0, "augmenter on");
  ExpectBitwiseEqual(batched1, serial1, "augmenter off");
}

// Fault injection in a packed batch draws from one shared stream in
// packed stage order (core/batch_eval.h), so a seeded multi-request batch
// must replay bit for bit — and every injection site must actually fire:
// corrupted rows reach quarantine, duplicated prompts reach dedup.
TEST_F(BatchEvalTest, PackedFaultInjectionReplaysBitwise) {
  FaultSpec spec;
  spec.embed_nan_prob = 0.3;
  spec.prompt_drop_prob = 0.3;
  spec.prompt_dup_prob = 0.5;
  spec.cache_poison_prob = 0.5;
  spec.seed = 29;
  const std::vector<EvalConfig> configs = {TinyEval(41), TinyEval(42),
                                           TinyEval(43)};
  std::vector<std::vector<EvalResult>> runs;
  for (int run = 0; run < 2; ++run) {
    ScopedFaultInjection scoped(spec);
    runs.push_back(EvaluateInContextBatch(model_, dataset_, configs));
  }
  DegradationStats total;
  for (size_t i = 0; i < configs.size(); ++i) {
    const std::string what = "request " + std::to_string(i);
    ExpectBitwiseEqual(runs[1][i], runs[0][i], what);
    EXPECT_EQ(runs[1][i].degradation.ToString(),
              runs[0][i].degradation.ToString())
        << what;
    EXPECT_EQ(runs[0][i].trial_accuracy_percent.size(), 2u) << what;
    total.Merge(runs[0][i].degradation);
  }
  EXPECT_GT(total.quarantined_prompts, 0);
  EXPECT_GT(total.deduped_prompts, 0);
}

// EvaluateInContextBatch drains the buffer pool once, after both phases,
// so stage 3 takes its task-graph buffers from those the packed encode
// released. Driving the phases without that outer scope drains the pool
// between them, and the same evaluation goes to the heap more often.
TEST_F(BatchEvalTest, StageThreeReusesPackedEncodeBuffers) {
  const std::vector<EvalConfig> configs = {TinyEval(31)};
  auto pool_misses = [](const std::function<void()>& run) {
    const int64_t before = PoolStatsSnapshot().misses;
    run();
    return PoolStatsSnapshot().misses - before;
  };
  // A first evaluation also misses on one-time set-up, so both measured
  // runs follow a warm-up run.
  EvaluateInContextBatch(model_, dataset_, configs);
  const int64_t one_drain = pool_misses(
      [&] { EvaluateInContextBatch(model_, dataset_, configs); });
  const int64_t drain_per_phase = pool_misses([&] {
    BatchEvaluation batch(model_, dataset_, configs);
    batch.Prepare();
    batch.FinishRequest(0, BatchStage3Options());
  });
  EXPECT_LT(one_drain, drain_per_phase);
}

BatchItem Item(const std::string& tenant, uint64_t id,
               bool barrier = false) {
  BatchItem item;
  item.request.tenant = tenant;
  item.request.request_id = id;
  item.barrier = barrier;
  return item;
}

TEST(MicroBatcherTest, SizeCapFlushesImmediately) {
  MicroBatcherOptions opt;
  opt.window_us = 60'000'000;  // never reached
  opt.max_batch = 3;
  MicroBatcher batcher(opt);
  for (uint64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(batcher.Enqueue(Item("a", id)));
  }
  MicroBatch batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kSize);
  ASSERT_EQ(batch.items.size(), 3u);
  for (uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(batch.items[id].request.request_id, id);  // FIFO
  }
}

TEST(MicroBatcherTest, WindowFlushesAfterHeadWaited) {
  MicroBatcherOptions opt;
  opt.window_us = 3000;
  opt.max_batch = 8;
  MicroBatcher batcher(opt);
  ASSERT_TRUE(batcher.Enqueue(Item("a", 1)));
  MicroBatch batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kWindow);
  ASSERT_EQ(batch.items.size(), 1u);
  EXPECT_GE(batcher.NowMicros(), batch.items[0].enqueue_us + opt.window_us);
}

TEST(MicroBatcherTest, DeadlineRiskFlushesBeforeWindow) {
  MicroBatcherOptions opt;
  opt.window_us = 60'000'000;
  opt.max_batch = 8;
  opt.est_cost_us = 50'000;  // pessimistic: any near deadline is at risk
  MicroBatcher batcher(opt);
  BatchItem item = Item("a", 1);
  item.deadline_abs_us = batcher.NowMicros() + 10'000;
  ASSERT_TRUE(batcher.Enqueue(std::move(item)));
  MicroBatch batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kDeadline);
  // Flushed at deadline - est_cost, i.e. right away — not after the
  // 60-second window.
  EXPECT_LT(batcher.NowMicros(), 1'000'000);
}

TEST(MicroBatcherTest, BarrierFlushesAloneAndInOrder) {
  MicroBatcherOptions opt;
  opt.window_us = 2000;
  opt.max_batch = 8;
  MicroBatcher batcher(opt);
  ASSERT_TRUE(batcher.Enqueue(Item("a", 1)));
  ASSERT_TRUE(batcher.Enqueue(Item("a", 2, /*barrier=*/true)));
  ASSERT_TRUE(batcher.Enqueue(Item("a", 3)));

  MicroBatch batch;
  // The clean prefix before the barrier flushes first (window), then the
  // barrier alone, then the tail.
  ASSERT_TRUE(batcher.NextBatch(&batch));
  ASSERT_EQ(batch.items.size(), 1u);
  EXPECT_EQ(batch.items[0].request.request_id, 1u);

  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kBarrier);
  ASSERT_EQ(batch.items.size(), 1u);
  EXPECT_EQ(batch.items[0].request.request_id, 2u);

  ASSERT_TRUE(batcher.NextBatch(&batch));
  ASSERT_EQ(batch.items.size(), 1u);
  EXPECT_EQ(batch.items[0].request.request_id, 3u);
}

TEST(MicroBatcherTest, CapacityShedsAndCloseDrains) {
  MicroBatcherOptions opt;
  opt.window_us = 60'000'000;
  opt.max_batch = 8;
  opt.capacity = 2;
  MicroBatcher batcher(opt);
  ASSERT_TRUE(batcher.Enqueue(Item("a", 1)));
  ASSERT_TRUE(batcher.Enqueue(Item("b", 2)));
  EXPECT_FALSE(batcher.Enqueue(Item("a", 3)));  // at capacity: shed

  batcher.Close();
  EXPECT_FALSE(batcher.Enqueue(Item("a", 4)));  // closed: shed

  // Queued items drain per tenant with reason kDrain, then NextBatch
  // signals worker exit.
  MicroBatch batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kDrain);
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.reason, FlushReason::kDrain);
  EXPECT_FALSE(batcher.NextBatch(&batch));
}

TEST(MicroBatcherTest, LongestWaitingTenantFlushesFirst) {
  MicroBatcherOptions opt;
  opt.window_us = 1000;
  opt.max_batch = 8;
  MicroBatcher batcher(opt);
  // "z" enqueues before "a": FIFO fairness must beat name order.
  ASSERT_TRUE(batcher.Enqueue(Item("z", 1)));
  while (batcher.NowMicros() < 200) {
  }
  ASSERT_TRUE(batcher.Enqueue(Item("a", 2)));
  MicroBatch batch;
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.tenant, "z");
  ASSERT_TRUE(batcher.NextBatch(&batch));
  EXPECT_EQ(batch.tenant, "a");
}

// ---- Server-level pins over real sockets --------------------------------

std::string TestSocketPath(const char* tag) {
  return std::string("/tmp/gp_serve_batch_") + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

int ConnectOrDie(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    ::usleep(10000);
  }
  ADD_FAILURE() << "could not connect to " << path;
  return fd;
}

EvalRequest SocketRequest(const std::string& tenant, uint64_t id) {
  EvalRequest req;
  req.tenant = tenant;
  req.request_id = id;
  req.deadline_us = 30'000'000;
  req.ways = 3;
  req.shots = 1;
  req.candidates_per_class = 3;
  req.num_queries = 3;
  req.query_batch = 3;
  req.trials = 1;
  req.seed = 500 + id;
  return req;
}

// Everything a reply asserts about the computation (timing fields are
// excluded by the determinism contract).
struct ReplyBits {
  int32_t status_code = 0;
  uint64_t mean_bits = 0;
  uint64_t std_bits = 0;
  uint64_t degradation = 0;
  uint32_t retries = 0;
  std::string message;

  bool operator==(const ReplyBits& other) const {
    return status_code == other.status_code &&
           mean_bits == other.mean_bits && std_bits == other.std_bits &&
           degradation == other.degradation && retries == other.retries &&
           message == other.message;
  }
};

ReplyBits BitsOf(const EvalResponse& resp) {
  ReplyBits bits;
  bits.status_code = resp.status_code;
  std::memcpy(&bits.mean_bits, &resp.accuracy_mean, sizeof(double));
  std::memcpy(&bits.std_bits, &resp.accuracy_std, sizeof(double));
  bits.degradation = resp.degradation_events;
  bits.retries = resp.retries;
  bits.message = resp.message;
  return bits;
}

struct SocketPhase {
  std::map<uint64_t, ReplyBits> replies;  // keyed by request id
  std::vector<PromptServer::TenantSnapshot> tenants;  // after the drain
};

// Serves `log` through a socket server configured by `sc`, one connection
// per tenant. Each connection pipelines its tenant's requests in log
// order (send everything, then read everything), which gives a batching
// server full queues to coalesce.
SocketPhase RunSocketPhase(GraphPrompterModel* model, DatasetBundle* dataset,
                           const ServeConfig& sc,
                           const std::vector<EvalRequest>& log,
                           const char* tag) {
  std::map<std::string, std::vector<const EvalRequest*>> by_tenant;
  for (const EvalRequest& req : log) by_tenant[req.tenant].push_back(&req);

  PromptServer server(model, dataset, sc);
  const std::string path = TestSocketPath(tag);
  std::thread server_thread([&server, &path] {
    const Status status = server.ServeUnixSocket(path);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  SocketPhase phase;
  std::mutex replies_mu;
  std::vector<std::thread> clients;
  for (const auto& [tenant, requests] : by_tenant) {
    clients.emplace_back([&, &requests = requests] {
      FdStream stream(ConnectOrDie(path), /*owns_fd=*/true);
      for (const EvalRequest* req : requests) {
        const std::string wire = EvalRequestWire(*req);
        ASSERT_TRUE(stream.Write(wire.data(), wire.size()).ok());
      }
      for (size_t r = 0; r < requests.size(); ++r) {
        auto reply = ReadFrame(&stream);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        auto resp = DecodeEvalResponse(reply->payload);
        ASSERT_TRUE(resp.ok());
        std::lock_guard<std::mutex> lock(replies_mu);
        phase.replies[resp->request_id] = BitsOf(*resp);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  server.RequestDrain();
  server_thread.join();
  ::unlink(path.c_str());
  phase.tenants = server.SnapshotTenants();
  return phase;
}

TEST(ServeBatchSocketTest, BatchedRepliesMatchUnbatchedBitwise) {
  DatasetBundle dataset = MakeArxivSim(0.25, 2);
  GraphPrompterModel model(TinyConfig(dataset.graph.feature_dim()));
  constexpr int kPerTenant = 8;
  std::vector<EvalRequest> log;
  for (int t = 0; t < 2; ++t) {
    for (int r = 0; r < kPerTenant; ++r) {
      log.push_back(SocketRequest("tenant-" + std::to_string(t),
                                  static_cast<uint64_t>(t * 1000 + r)));
    }
  }
  ServeConfig sc;
  sc.workers = 2;
  sc.queue_capacity = 64;
  sc.default_deadline_us = 30'000'000;
  // Comparison across schedules requires per-request augmenters: a warm
  // tenant cache couples a reply to its predecessors' order, which
  // legitimately differs between two batching-off workers and the one
  // batch worker.
  sc.persist_tenant_cache = false;
  sc.batch_max = 4;

  sc.batch_window_us = 0;
  const auto unbatched =
      RunSocketPhase(&model, &dataset, sc, log, "unbatched").replies;
  sc.batch_window_us = 5000;
  const auto batched =
      RunSocketPhase(&model, &dataset, sc, log, "batched").replies;

  ASSERT_EQ(unbatched.size(), log.size());
  ASSERT_EQ(batched.size(), unbatched.size());
  for (const auto& [id, bits] : unbatched) {
    const auto it = batched.find(id);
    ASSERT_NE(it, batched.end()) << "request " << id << " missing";
    EXPECT_TRUE(it->second == bits)
        << "request " << id << " differs between schedules";
    EXPECT_EQ(bits.status_code, static_cast<int32_t>(StatusCode::kOk));
  }
}

// The chaos log (tests/serve_chaos_log.h) through a socket server with
// warm tenant caches, one connection per tenant, gets the replies and the
// tenant states that pipe mode gives it, with batching on and with
// batching off. Each tenant's requests reach its state in the same order
// on every path, so caches, breakers and fault draws evolve alike while
// the clean requests ride in packed batches (batching on) or one at a
// time (batching off, one worker).
TEST(ServeBatchSocketTest, ChaosLogMatchesPipeMode) {
  DatasetBundle dataset = ChaosLogDataset();
  GraphPrompterModel model(ChaosLogModelConfig(dataset.graph.feature_dim()));
  const std::vector<EvalRequest> log = ChaosLog(dataset.num_classes);

  PromptServer pipe_server(&model, &dataset, ChaosLogServeConfig());
  const std::vector<EvalResponse> piped =
      ServeLogThroughPipe(&pipe_server, log);
  ASSERT_EQ(piped.size(), log.size());
  const std::vector<PromptServer::TenantSnapshot> piped_tenants =
      pipe_server.SnapshotTenants();

  ServeConfig batching = ChaosLogServeConfig();
  batching.queue_capacity = 64;
  batching.batch_window_us = 2000;
  batching.batch_max = 4;
  ServeConfig unbatched = ChaosLogServeConfig();
  unbatched.queue_capacity = 64;
  unbatched.workers = 1;
  for (const ServeConfig& sc : {batching, unbatched}) {
    SCOPED_TRACE(sc.batch_window_us > 0 ? "batching on" : "batching off");
    const SocketPhase phase =
        RunSocketPhase(&model, &dataset, sc, log, "chaos_log");

    ASSERT_EQ(phase.replies.size(), log.size());
    for (const EvalResponse& resp : piped) {
      const auto it = phase.replies.find(resp.request_id);
      ASSERT_NE(it, phase.replies.end())
          << "request " << resp.request_id << " missing";
      EXPECT_TRUE(it->second == BitsOf(resp))
          << "request " << resp.request_id << " differs from pipe mode";
    }
    ASSERT_EQ(phase.tenants.size(), piped_tenants.size());
    for (size_t t = 0; t < piped_tenants.size(); ++t) {
      const PromptServer::TenantSnapshot& want = piped_tenants[t];
      const PromptServer::TenantSnapshot& got = phase.tenants[t];
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.requests, want.requests) << want.name;
      EXPECT_EQ(got.safe_mode_requests, want.safe_mode_requests)
          << want.name;
      EXPECT_EQ(got.breaker_trips, want.breaker_trips) << want.name;
      EXPECT_EQ(got.degradation_events, want.degradation_events)
          << want.name;
      EXPECT_EQ(got.breaker_state, want.breaker_state) << want.name;
    }
  }
}

// A batched deadline-exceeded reply names the request's own budget, as the
// single-request path does, however long admission took to queue it.
TEST(ServeBatchSocketTest, BatchedDeadlineMessageNamesRequestBudget) {
  DatasetBundle dataset = MakeArxivSim(0.25, 2);
  GraphPrompterModel model(TinyConfig(dataset.graph.feature_dim()));
  ServeConfig sc;
  sc.queue_capacity = 128;
  sc.batch_window_us = 5000;
  sc.batch_max = 4;
  PromptServer server(&model, &dataset, sc);
  const std::string path = TestSocketPath("deadline_message");
  std::thread server_thread([&server, &path] {
    const Status status = server.ServeUnixSocket(path);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  constexpr int kRequests = 96;
  int expired = 0;
  // A lambda, so a failed ASSERT still reaches the drain and join below.
  [&] {
    FdStream stream(ConnectOrDie(path), /*owns_fd=*/true);
    for (int r = 0; r < kRequests; ++r) {
      EvalRequest req = SocketRequest("deadline", static_cast<uint64_t>(r));
      req.deadline_us = 1000;
      Frame frame;
      frame.type = FrameType::kEvalRequest;
      frame.payload = EncodeEvalRequest(req);
      const std::string wire = EncodeFrame(frame);
      ASSERT_TRUE(stream.Write(wire.data(), wire.size()).ok());
    }
    for (int r = 0; r < kRequests; ++r) {
      auto reply = ReadFrame(&stream);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      auto resp = DecodeEvalResponse(reply->payload);
      ASSERT_TRUE(resp.ok());
      if (resp->status_code !=
          static_cast<int32_t>(StatusCode::kDeadlineExceeded)) {
        continue;
      }
      ++expired;
      EXPECT_EQ(resp->message, "deadline of 1000us expired")
          << "request " << resp->request_id;
    }
  }();
  // The queue behind the first batches outlasts a 1ms budget.
  EXPECT_GT(expired, 0);
  server.RequestDrain();
  server_thread.join();
  ::unlink(path.c_str());
}

// With batching off a request's budget starts at admission too: a request
// that outwaits its budget behind a slow one is answered
// kDeadlineExceeded, naming its own budget.
TEST(ServeBatchSocketTest, UnbatchedBudgetStartsAtAdmission) {
  DatasetBundle dataset = MakeArxivSim(0.25, 2);
  GraphPrompterModel model(TinyConfig(dataset.graph.feature_dim()));
  ServeConfig sc;
  sc.workers = 1;
  PromptServer server(&model, &dataset, sc);
  const std::string path = TestSocketPath("unbatched_budget");
  std::thread server_thread([&server, &path] {
    const Status status = server.ServeUnixSocket(path);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  // A lambda, so a failed ASSERT still reaches the drain and join below.
  [&] {
    FdStream slow(ConnectOrDie(path), /*owns_fd=*/true);
    FdStream hurried(ConnectOrDie(path), /*owns_fd=*/true);
    // Its one query batch sleeps for a second and holds the only worker.
    EvalRequest hold = SocketRequest("slow", 1);
    hold.fault_spec = "slow_every=1,slow_ms=1000";
    const std::string hold_wire = EvalRequestWire(hold);
    ASSERT_TRUE(slow.Write(hold_wire.data(), hold_wire.size()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EvalRequest req = SocketRequest("hurried", 2);
    req.deadline_us = 400'000;
    const std::string wire = EvalRequestWire(req);
    ASSERT_TRUE(hurried.Write(wire.data(), wire.size()).ok());

    auto reply = ReadFrame(&hurried);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto resp = DecodeEvalResponse(reply->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status_code,
              static_cast<int32_t>(StatusCode::kDeadlineExceeded));
    EXPECT_EQ(resp->message, "deadline of 400000us expired");

    auto held = ReadFrame(&slow);
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    auto held_resp = DecodeEvalResponse(held->payload);
    ASSERT_TRUE(held_resp.ok());
    EXPECT_EQ(held_resp->status_code, static_cast<int32_t>(StatusCode::kOk));
  }();
  server.RequestDrain();
  server_thread.join();
  ::unlink(path.c_str());
}

// The metrics frame: a kMetricsRequest interleaved with eval traffic gets
// one kMetricsResponse carrying the telemetry snapshot as JSON.
TEST(ServeBatchSocketTest, MetricsFrameReturnsTelemetryJson) {
  DatasetBundle dataset = MakeArxivSim(0.25, 2);
  GraphPrompterModel model(TinyConfig(dataset.graph.feature_dim()));
  PromptServer server(&model, &dataset, ServeConfig());

  std::string wire;
  Frame eval_frame;
  eval_frame.type = FrameType::kEvalRequest;
  eval_frame.payload = EncodeEvalRequest(SocketRequest("metrics", 1));
  wire += EncodeFrame(eval_frame);
  Frame metrics_frame;
  metrics_frame.type = FrameType::kMetricsRequest;
  wire += EncodeFrame(metrics_frame);
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;
  wire += EncodeFrame(shutdown);

  StringByteStream in(wire);
  StringByteStream out;
  ASSERT_TRUE(server.ServePipe(&in, &out).ok());

  StringByteStream replies(out.output());
  auto eval_reply = ReadFrame(&replies);
  ASSERT_TRUE(eval_reply.ok());
  EXPECT_EQ(eval_reply->type, FrameType::kEvalResponse);
  auto metrics_reply = ReadFrame(&replies);
  ASSERT_TRUE(metrics_reply.ok());
  EXPECT_EQ(metrics_reply->type, FrameType::kMetricsResponse);
  // A telemetry snapshot, not an empty stub: the counters section must
  // mention the request counter the eval frame just bumped.
  EXPECT_NE(metrics_reply->payload.find("counters"), std::string::npos);
  EXPECT_NE(metrics_reply->payload.find("serve/requests"),
            std::string::npos);
}

// The write-side stall bound: a peer that stops consuming mid-frame must
// bounce the writer out of write() with kDeadlineExceeded instead of
// pinning it forever.
TEST(FdStreamWriteStallTest, StalledPeerTimesOutWrite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream writer(fds[0], /*owns_fd=*/true);
  writer.ArmStallTimeout(100);  // ms

  // Nobody reads fds[1]; keep writing until the socket buffers fill and
  // the stall bound trips. Cap the loop so a regression fails instead of
  // hanging.
  const std::string chunk(1 << 16, 'x');
  Status status = Status::Ok();
  for (int i = 0; i < 4096 && status.ok(); ++i) {
    status = writer.Write(chunk.data(), chunk.size());
  }
  ASSERT_FALSE(status.ok()) << "write never stalled";
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  ::close(fds[1]);
}

}  // namespace
}  // namespace gp
