// A fixed multi-tenant request log that walks the serving daemon through
// every reply path that does not depend on timing:
//   - "clean": plain requests, which a batching server packs together,
//     and one episode wider than the dataset (kInvalidArgument);
//   - "chaos": corrupted embeddings and a poisoned augmenter cache trip
//     the tenant's circuit breaker; it cools down through safe-mode
//     requests, a corrupted half-open probe re-trips it, it cools down
//     again, a malformed fault spec is rejected, and a clean probe closes
//     it;
//   - "flaky": transient failures that exhaust the retry budget and that
//     recover through retries, then a clean request.
// Every request carries a generous deadline, so none expires.
// golden_eval_test pins the pipe-mode replies and tenant snapshots
// (tests/golden/serve_replies.golden); serve_batch_test replays the log
// through a batching socket server and requires the same replies and
// snapshots.

#ifndef GRAPHPROMPTER_TESTS_SERVE_CHAOS_LOG_H_
#define GRAPHPROMPTER_TESTS_SERVE_CHAOS_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_prompter.h"
#include "data/datasets.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace gp {

inline DatasetBundle ChaosLogDataset() { return MakeArxivSim(0.25, 2); }

inline GraphPrompterConfig ChaosLogModelConfig(int feature_dim) {
  GraphPrompterConfig config = FullGraphPrompterConfig(feature_dim, 7);
  config.embedding_dim = 16;
  config.recon_hidden = 16;
  config.selection_hidden = 16;
  config.sampler.max_nodes = 8;
  return config;
}

// Two consecutive degraded requests trip a breaker, and two safe-mode
// requests cool it down. Tenant caches persist across requests.
inline ServeConfig ChaosLogServeConfig() {
  ServeConfig sc;
  sc.breaker.trip_threshold = 2;
  sc.breaker.cooldown_requests = 2;
  return sc;
}

inline EvalRequest ChaosLogRequest(const std::string& tenant, uint64_t id,
                                   const std::string& fault_spec = "") {
  EvalRequest req;
  req.tenant = tenant;
  req.request_id = id;
  req.deadline_us = 30'000'000;
  req.ways = 3;
  req.shots = 2;
  req.candidates_per_class = 4;
  req.num_queries = 6;
  req.query_batch = 3;
  req.trials = 2;
  req.seed = 2000 + id;
  req.fault_spec = fault_spec;
  return req;
}

// The log, in arrival order. `num_classes` is the dataset's class count,
// so one request can ask for one way more than it has.
inline std::vector<EvalRequest> ChaosLog(int num_classes) {
  const std::string corrupt = "embed_nan=0.9,cache_poison=0.9,seed=6";
  EvalRequest too_wide = ChaosLogRequest("clean", 11);
  too_wide.ways = num_classes + 1;
  return {
      ChaosLogRequest("clean", 1),
      ChaosLogRequest("chaos", 2, corrupt),
      ChaosLogRequest("clean", 3),
      ChaosLogRequest("chaos", 4, corrupt),  // second degraded: trips
      ChaosLogRequest("flaky", 5, "serve_fail=1,seed=4"),
      ChaosLogRequest("chaos", 6),  // safe mode
      ChaosLogRequest("clean", 7),
      ChaosLogRequest("chaos", 8, corrupt),  // safe mode: half-opens
      ChaosLogRequest("flaky", 9, "serve_fail=0.5,seed=5"),
      ChaosLogRequest("chaos", 10, corrupt),  // probe, degraded: re-trips
      too_wide,
      ChaosLogRequest("chaos", 12),  // safe mode
      ChaosLogRequest("clean", 13),
      ChaosLogRequest("chaos", 14, corrupt),  // safe mode: half-opens
      ChaosLogRequest("chaos", 15, "no_such_fault=1"),  // rejected
      ChaosLogRequest("flaky", 16, "serve_fail=0.5,seed=5"),
      ChaosLogRequest("chaos", 17),  // probe, clean: closes
      ChaosLogRequest("clean", 18),
      ChaosLogRequest("chaos", 19),
      ChaosLogRequest("flaky", 20),
      ChaosLogRequest("clean", 21),
  };
}

inline std::string EvalRequestWire(const EvalRequest& request) {
  Frame frame;
  frame.type = FrameType::kEvalRequest;
  frame.payload = EncodeEvalRequest(request);
  return EncodeFrame(frame);
}

// Pipes `log` through `server` in pipe mode and returns the decoded
// replies in order. An empty vector means the session failed.
inline std::vector<EvalResponse> ServeLogThroughPipe(
    PromptServer* server, const std::vector<EvalRequest>& log) {
  std::string wire;
  for (const EvalRequest& request : log) wire += EvalRequestWire(request);
  Frame shutdown;
  shutdown.type = FrameType::kShutdown;
  wire += EncodeFrame(shutdown);
  StringByteStream in(wire);
  StringByteStream out;
  if (!server->ServePipe(&in, &out).ok()) return {};
  StringByteStream replies(out.output());
  std::vector<EvalResponse> responses;
  for (size_t i = 0; i < log.size(); ++i) {
    auto frame = ReadFrame(&replies);
    if (!frame.ok()) return {};
    auto response = DecodeEvalResponse(frame->payload);
    if (!response.ok()) return {};
    responses.push_back(*std::move(response));
  }
  return responses;
}

}  // namespace gp

#endif  // GRAPHPROMPTER_TESTS_SERVE_CHAOS_LOG_H_
