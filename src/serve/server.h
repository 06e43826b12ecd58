// The multi-tenant prompt-serving daemon.
//
// A PromptServer wraps a loaded GraphPrompterModel + dataset and answers
// EvaluateInContext requests over the framed protocol (serve/frame.h).
// Two transports:
//   - ServePipe: single-threaded loop over a ByteStream pair. Fully
//     deterministic — the replay tests prove a piped request log produces
//     bitwise-identical results to calling EvaluateInContext directly.
//   - ServeUnixSocket: accept loop + per-connection reader threads + a
//     bounded admission queue drained by worker threads. SIGTERM-style
//     graceful drain via RequestDrain() (signal-safe).
//
// Robustness layers, outermost first:
//   framing     torn/truncated/oversized/corrupt frames are rejected with
//               typed errors (serve/frames_rejected), never a crash
//   admission   a full queue sheds the request immediately with
//               kUnavailable (serve/shed) instead of queueing unboundedly
//   deadlines   every request carries a budget (client value or server
//               default); it is checked before work starts, at retry
//               boundaries, and inside EvaluateInContext at stage
//               boundaries (EvalConfig::deadline_us)
//   retries     transient failures (injected via serve_fail) back off
//               exponentially, capped by the remaining budget
//   breakers    each tenant's circuit breaker (serve/tenant.h) degrades
//               only that tenant to safe mode; fault injection is scoped
//               per tenant, so chaos traffic cannot bleed across tenants
//
// Micro-batching (socket mode, opt-in via batch_window_us > 0): admitted
// clean requests coalesce in per-tenant queues (serve/batcher.h) and run
// through one packed BatchEvaluation pass (core/batch_eval.h), which one
// batch worker runs a batch at a time. Every batched reply is bitwise
// identical to the single-request path (DESIGN.md §11); fault-carrying
// requests are barriers and take the full single-request path. A
// kMetricsRequest frame is answered inline by the connection reader with a
// deterministic JSON telemetry snapshot, bypassing admission.

#ifndef GRAPHPROMPTER_SERVE_SERVER_H_
#define GRAPHPROMPTER_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/graph_prompter.h"
#include "data/datasets.h"
#include "serve/batcher.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/tenant.h"

namespace gp {

struct ServeConfig {
  int workers = 2;
  // Admission queue bound: requests beyond this are shed with
  // kUnavailable rather than queued.
  int queue_capacity = 16;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Budget for requests that do not carry their own deadline.
  int64_t default_deadline_us = 250000;
  // Transient-failure retry discipline: up to max_retries re-attempts with
  // exponential backoff starting at retry_backoff_us, always capped by the
  // request's remaining budget.
  int max_retries = 2;
  int64_t retry_backoff_us = 200;
  // Mid-frame stall bound for socket reads; <= 0 disables.
  int stall_timeout_ms = 2000;
  BreakerConfig breaker;
  PromptAugmenterConfig augmenter;
  // When true (default) each tenant keeps its augmenter cache warm across
  // requests; false falls back to a fresh per-request augmenter.
  bool persist_tenant_cache = true;
  // Cross-request micro-batching (socket mode). <= 0 keeps batching off and
  // every request on the single-request worker path. When > 0, admitted
  // clean requests coalesce per tenant for up to batch_window_us — or until
  // batch_max are queued, or the soonest deadline is at risk — and evaluate
  // through one packed EvaluateInContextBatch pass. Time spent coalescing
  // counts against each request's deadline budget.
  int64_t batch_window_us = 0;
  int batch_max = 8;
  // Initial per-request cost estimate seeding the deadline-risk flush rule
  // (refined at runtime by an EWMA of observed batch cost).
  int64_t batch_est_cost_us = 2000;
  uint64_t seed = 1;
};

class PromptServer {
 public:
  // `model` and `dataset` must outlive the server.
  PromptServer(const GraphPrompterModel* model, const DatasetBundle* dataset,
               const ServeConfig& config);
  ~PromptServer();

  PromptServer(const PromptServer&) = delete;
  PromptServer& operator=(const PromptServer&) = delete;

  // Processes one decoded request synchronously: tenant lookup, breaker,
  // fault scoping, deadline + retry discipline, evaluation, accounting.
  // Never fails — errors become the response's status_code.
  EvalResponse Handle(const EvalRequest& request);

  // Single-threaded serving loop: reads frames from `in`, writes responses
  // to `out`, returns on clean EOF or a kShutdown frame. Frame-level
  // corruption ends the loop with the frame error; request-level problems
  // are answered in-band. Deterministic given deterministic requests.
  Status ServePipe(ByteStream* in, ByteStream* out);

  // Binds `path`, accepts connections, and serves until RequestDrain().
  // Each connection gets a reader thread; requests funnel through the
  // bounded admission queue into the worker pool. Returns after the drain
  // completes: in-flight requests finished, telemetry flushed.
  Status ServeUnixSocket(const std::string& path);

  // Starts a graceful drain. Async-signal-safe (one write to a pipe), so
  // a SIGTERM handler may call it directly.
  void RequestDrain();

  // Point-in-time view of every tenant, for telemetry export and the
  // cross-tenant isolation assertions in tests and the chaos soak.
  struct TenantSnapshot {
    std::string name;
    int64_t requests = 0;
    int64_t safe_mode_requests = 0;
    int64_t breaker_trips = 0;
    int64_t degradation_events = 0;
    BreakerState breaker_state = BreakerState::kClosed;
  };
  std::vector<TenantSnapshot> SnapshotTenants();

  const ServeConfig& config() const { return config_; }

 private:
  struct Connection;
  struct WorkItem;
  class BoundedQueue;
  struct BatchInFlight;

  TenantState* GetOrCreateTenant(const std::string& name);
  void WorkerLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  static Status WriteResponse(ByteStream* stream, std::mutex* write_mu,
                              const EvalResponse& response);

  // Micro-batch execution: AssembleBatch builds the packed BatchEvaluation
  // for a flushed batch; ConsumeBatch demuxes results per request in
  // admission order under the tenant lock. BatchWorkerLoop takes one batch
  // at a time through assembly, Prepare() and ConsumeBatch.
  std::unique_ptr<BatchInFlight> AssembleBatch(MicroBatch batch);
  void ConsumeBatch(BatchInFlight* work);
  void BatchWorkerLoop();

  const GraphPrompterModel* model_;
  const DatasetBundle* dataset_;
  const ServeConfig config_;

  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;

  std::unique_ptr<BoundedQueue> queue_;
  std::unique_ptr<MicroBatcher> batcher_;  // non-null iff batching enabled
  int drain_pipe_[2] = {-1, -1};
};

}  // namespace gp

#endif  // GRAPHPROMPTER_SERVE_SERVER_H_
