// Serving-daemon behaviour tests, all on deterministic in-memory streams:
// pipe-mode replay equivalence against direct EvaluateInContext, deadline
// discipline, retry/breaker behaviour, and per-tenant isolation.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/graph_prompter.h"
#include "data/datasets.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"

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

EvalRequest TinyRequest(const std::string& tenant, uint64_t id) {
  EvalRequest req;
  req.tenant = tenant;
  req.request_id = id;
  req.deadline_us = 30'000'000;  // generous: these tests assert logic, not speed
  req.ways = 3;
  req.shots = 2;
  req.candidates_per_class = 4;
  req.num_queries = 6;
  req.query_batch = 3;
  req.trials = 1;
  req.seed = 1000 + id;
  return req;
}

class ServeServerTest : public ::testing::Test {
 protected:
  ServeServerTest()
      : dataset_(MakeArxivSim(0.25, 2)),
        model_(TinyConfig(dataset_.graph.feature_dim())) {}

  DatasetBundle dataset_;
  GraphPrompterModel model_;
};

// The acceptance bar for pipe mode: a request log replayed through the
// daemon produces results bitwise identical to calling EvaluateInContext
// directly with the same parameters.
TEST_F(ServeServerTest, PipeModeMatchesBatchEvaluation) {
  ServeConfig sc;
  // Per-request augmenters, exactly like batch evaluation constructs them.
  sc.persist_tenant_cache = false;
  PromptServer server(&model_, &dataset_, sc);

  std::vector<EvalRequest> requests;
  for (uint64_t id = 1; id <= 3; ++id) {
    requests.push_back(TinyRequest("replay", id));
  }
  std::string wire;
  for (const EvalRequest& req : requests) {
    Frame f;
    f.type = FrameType::kEvalRequest;
    f.payload = EncodeEvalRequest(req);
    wire += EncodeFrame(f);
  }
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;
  wire += EncodeFrame(shutdown);

  StringByteStream in(wire);
  StringByteStream out;
  ASSERT_TRUE(server.ServePipe(&in, &out).ok());

  StringByteStream replies(out.output());
  for (const EvalRequest& req : requests) {
    auto frame = ReadFrame(&replies);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kEvalResponse);
    auto resp = DecodeEvalResponse(frame->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->request_id, req.request_id);
    ASSERT_EQ(resp->status_code, static_cast<int32_t>(StatusCode::kOk));

    EvalConfig ec;
    ec.ways = req.ways;
    ec.shots = req.shots;
    ec.candidates_per_class = req.candidates_per_class;
    ec.num_queries = req.num_queries;
    ec.query_batch = req.query_batch;
    ec.trials = req.trials;
    ec.seed = req.seed;
    const EvalResult direct = EvaluateInContext(model_, dataset_, ec);
    // Bitwise equality, not near-equality: the serving path adds deadline
    // checks and response plumbing but must not perturb the computation.
    EXPECT_EQ(resp->accuracy_mean, direct.accuracy_percent.mean);
    EXPECT_EQ(resp->accuracy_std, direct.accuracy_percent.std);
    EXPECT_EQ(resp->degradation_events,
              static_cast<uint64_t>(direct.degradation.TotalEvents()));
  }
  // Nothing after the last response.
  EXPECT_EQ(ReadFrame(&replies).status().code(), StatusCode::kOutOfRange);
}

TEST_F(ServeServerTest, PipeModeTornFrameEndsSessionWithTypedError) {
  PromptServer server(&model_, &dataset_, ServeConfig());
  Frame f;
  f.type = FrameType::kEvalRequest;
  f.payload = EncodeEvalRequest(TinyRequest("torn", 1));
  const std::string wire = EncodeFrame(f);
  StringByteStream in(wire.substr(0, wire.size() / 2));
  StringByteStream out;
  const Status status = server.ServePipe(&in, &out);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(out.output().empty());
}

TEST_F(ServeServerTest, PipeModeAnswersMalformedRequestInBand) {
  PromptServer server(&model_, &dataset_, ServeConfig());
  // First frame: valid framing, garbage payload. Second: a real request.
  Frame bad;
  bad.type = FrameType::kEvalRequest;
  bad.payload = "definitely not a request";
  Frame good;
  good.type = FrameType::kEvalRequest;
  good.payload = EncodeEvalRequest(TinyRequest("mixed", 2));
  std::string wire = EncodeFrame(bad) + EncodeFrame(good);
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;
  wire += EncodeFrame(shutdown);

  StringByteStream in(wire);
  StringByteStream out;
  ASSERT_TRUE(server.ServePipe(&in, &out).ok());

  StringByteStream replies(out.output());
  auto first = ReadFrame(&replies);
  ASSERT_TRUE(first.ok());
  auto first_resp = DecodeEvalResponse(first->payload);
  ASSERT_TRUE(first_resp.ok());
  EXPECT_NE(first_resp->status_code, static_cast<int32_t>(StatusCode::kOk));
  auto second = ReadFrame(&replies);
  ASSERT_TRUE(second.ok());
  auto second_resp = DecodeEvalResponse(second->payload);
  ASSERT_TRUE(second_resp.ok());
  EXPECT_EQ(second_resp->status_code, static_cast<int32_t>(StatusCode::kOk));
  EXPECT_EQ(second_resp->request_id, 2u);
}

TEST_F(ServeServerTest, ImpossibleDeadlineIsDeadlineExceeded) {
  PromptServer server(&model_, &dataset_, ServeConfig());
  EvalRequest req = TinyRequest("hurried", 5);
  req.deadline_us = 1;  // nothing real completes in a microsecond
  const EvalResponse resp = server.Handle(req);
  EXPECT_EQ(resp.status_code,
            static_cast<int32_t>(StatusCode::kDeadlineExceeded));
}

TEST_F(ServeServerTest, WaysBeyondDatasetRejected) {
  PromptServer server(&model_, &dataset_, ServeConfig());
  EvalRequest req = TinyRequest("greedy", 6);
  req.ways = dataset_.num_classes + 1;
  const EvalResponse resp = server.Handle(req);
  EXPECT_EQ(resp.status_code,
            static_cast<int32_t>(StatusCode::kInvalidArgument));
}

TEST_F(ServeServerTest, MalformedFaultSpecRejectedPerRequest) {
  PromptServer server(&model_, &dataset_, ServeConfig());
  EvalRequest req = TinyRequest("chaotic", 7);
  req.fault_spec = "no_such_fault=1";
  const EvalResponse resp = server.Handle(req);
  EXPECT_EQ(resp.status_code,
            static_cast<int32_t>(StatusCode::kInvalidArgument));
}

TEST_F(ServeServerTest, TransientFaultsRetryThenExhaust) {
  ServeConfig sc;
  sc.max_retries = 2;
  sc.retry_backoff_us = 10;
  PromptServer server(&model_, &dataset_, sc);

  // serve_fail=1: every attempt fails, so each request burns all retries
  // and comes back kUnavailable with the retry count reported.
  EvalRequest req = TinyRequest("flaky", 8);
  req.fault_spec = "serve_fail=1,seed=4";
  const EvalResponse resp = server.Handle(req);
  EXPECT_EQ(resp.status_code, static_cast<int32_t>(StatusCode::kUnavailable));
  EXPECT_EQ(resp.retries, 2u);
}

TEST_F(ServeServerTest, BreakerTripsIntoSafeModeAndRecovers) {
  ServeConfig sc;
  sc.breaker.trip_threshold = 2;
  sc.breaker.cooldown_requests = 2;
  PromptServer server(&model_, &dataset_, sc);

  // Heavy embedding corruption: every request degrades (quarantine events).
  for (uint64_t id = 1; id <= 2; ++id) {
    EvalRequest req = TinyRequest("victim", id);
    req.fault_spec = "embed_nan=0.9,seed=6";
    const EvalResponse resp = server.Handle(req);
    EXPECT_GT(resp.degradation_events, 0u) << "request " << id;
  }
  auto tenants = server.SnapshotTenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].breaker_trips, 1);
  EXPECT_EQ(tenants[0].breaker_state, BreakerState::kOpen);

  // Faults cleared: cooldown requests run in safe mode, then the half-open
  // probe comes back clean and the breaker closes.
  for (uint64_t id = 3; id <= 6; ++id) {
    EvalRequest req = TinyRequest("victim", id);
    const EvalResponse resp = server.Handle(req);
    EXPECT_EQ(resp.status_code, static_cast<int32_t>(StatusCode::kOk));
  }
  tenants = server.SnapshotTenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].breaker_state, BreakerState::kClosed);
  EXPECT_GE(tenants[0].safe_mode_requests, 2);
}

// The request after the last cooldown request is the half-open probe: it
// runs the full pipeline, and a degraded probe re-trips the breaker.
TEST_F(ServeServerTest, BreakerProbeRunsAfterCooldown) {
  ServeConfig sc;
  sc.breaker.trip_threshold = 2;
  sc.breaker.cooldown_requests = 2;
  PromptServer server(&model_, &dataset_, sc);
  const std::string corrupt = "embed_nan=0.9,seed=6";
  auto serve = [&server](uint64_t id, const std::string& fault_spec) {
    EvalRequest req = TinyRequest("probed", id);
    req.fault_spec = fault_spec;
    return server.Handle(req);
  };
  auto tenant = [&server] {
    const auto tenants = server.SnapshotTenants();
    EXPECT_EQ(tenants.size(), 1u);
    return tenants.at(0);
  };

  for (uint64_t id = 1; id <= 2; ++id) {
    EXPECT_GT(serve(id, corrupt).degradation_events, 0u) << "request " << id;
  }
  EXPECT_EQ(tenant().breaker_state, BreakerState::kOpen);
  for (uint64_t id = 3; id <= 4; ++id) {
    EXPECT_EQ(serve(id, "").status_code,
              static_cast<int32_t>(StatusCode::kOk));
  }
  EXPECT_EQ(tenant().safe_mode_requests, 2);
  EXPECT_EQ(tenant().breaker_state, BreakerState::kHalfOpen);

  // The probe is not a safe-mode request, and its degradation re-trips.
  EXPECT_GT(serve(5, corrupt).degradation_events, 0u);
  EXPECT_EQ(tenant().safe_mode_requests, 2);
  EXPECT_EQ(tenant().breaker_trips, 2);
  EXPECT_EQ(tenant().breaker_state, BreakerState::kOpen);
}

TEST_F(ServeServerTest, ChaosTenantNeverBleedsIntoCleanTenants) {
  PromptServer server(&model_, &dataset_, ServeConfig());
  // Interleave a heavily faulted tenant with two clean ones.
  for (uint64_t round = 1; round <= 4; ++round) {
    EvalRequest chaos = TinyRequest("chaos", round * 10);
    chaos.fault_spec = "embed_nan=0.8,cache_poison=0.8,seed=9";
    server.Handle(chaos);
    for (const char* tenant : {"clean-a", "clean-b"}) {
      const EvalResponse resp =
          server.Handle(TinyRequest(tenant, round * 10 + 1));
      EXPECT_EQ(resp.status_code, static_cast<int32_t>(StatusCode::kOk));
      EXPECT_EQ(resp.degradation_events, 0u)
          << tenant << " degraded in round " << round;
    }
  }
  int64_t chaos_events = 0;
  for (const auto& t : server.SnapshotTenants()) {
    if (t.name == "chaos") {
      chaos_events = t.degradation_events;
    } else {
      EXPECT_EQ(t.degradation_events, 0)
          << t.name << " absorbed another tenant's faults";
    }
  }
  EXPECT_GT(chaos_events, 0);
}

}  // namespace
}  // namespace gp
