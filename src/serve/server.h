// The multi-tenant prompt-serving daemon.
//
// A PromptServer wraps a loaded GraphPrompterModel + dataset and answers
// EvaluateInContext requests over the framed protocol (serve/frame.h).
// One private function, ServeBatch, evaluates every served request: it
// answers one tenant's requests in admission order through one packed
// BatchEvaluation (core/batch_eval.h), and Handle is a batch of one. Two
// transports:
//   - ServePipe: single-threaded loop over a ByteStream pair, one Handle
//     per request. Fully deterministic — the replay tests prove a piped
//     request log produces bitwise-identical results to calling
//     EvaluateInContext directly.
//   - ServeUnixSocket: accept loop + per-connection reader threads that
//     admit every request to one MicroBatcher (serve/batcher.h). With
//     batching on, one batch worker serves its micro-batches; with
//     batching off its cap is one request and `workers` batch workers
//     serve those batches of one. SIGTERM-style graceful drain via
//     RequestDrain() (signal-safe).
//
// Robustness layers, outermost first:
//   framing     torn/truncated/oversized/corrupt frames are rejected with
//               typed errors (serve/frames_rejected), never a crash
//   admission   a full batcher sheds the request immediately with
//               kUnavailable (serve/shed) instead of queueing unboundedly
//   deadlines   every request carries a budget (client value or server
//               default) from socket admission or the Handle call; it
//               is checked before the packed pass, at retry boundaries,
//               and inside evaluation at stage boundaries
//               (EvalConfig::deadline_us)
//   retries     transient failures (injected via serve_fail) back off
//               exponentially, capped by the remaining budget
//   breakers    each tenant's circuit breaker (serve/tenant.h) degrades
//               only that tenant to safe mode; fault injection is scoped
//               per tenant, so chaos traffic cannot bleed across tenants
//
// Every batched reply is bitwise identical to the same request served
// alone (DESIGN.md §11); fault-carrying requests are barriers, batches of
// one. A kMetricsRequest frame is answered inline by the connection reader
// with a deterministic JSON telemetry snapshot, bypassing admission.

#ifndef GRAPHPROMPTER_SERVE_SERVER_H_
#define GRAPHPROMPTER_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
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
  // Batch workers draining the batcher when batching is off, each serving
  // one request at a time. Batching on runs one batch worker.
  int workers = 2;
  // Admission bound, over the batcher's queues together: requests beyond
  // it are shed with kUnavailable rather than queued.
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
  // Cross-request micro-batching (socket mode). Every socket request is
  // admitted to the batcher, and its deadline budget starts there, so time
  // spent queued or coalescing counts against it. <= 0 keeps batching off:
  // a batch cap of one with no window, drained by `workers` batch workers.
  // When > 0, one batch worker serves every admitted request: clean
  // requests coalesce per tenant for up to batch_window_us — or until
  // batch_max are queued, or the soonest deadline is at risk — and
  // evaluate through one packed pass, while fault-carrying requests flush
  // alone.
  int64_t batch_window_us = 0;
  int batch_max = 8;
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

  // Serves one decoded request synchronously, as a batch of one: tenant
  // lookup, fault scoping, deadline + retry discipline, evaluation,
  // breaker accounting. Its budget starts at the call. Never fails —
  // errors become the response's status_code.
  EvalResponse Handle(const EvalRequest& request);

  // Single-threaded serving loop: reads frames from `in`, writes responses
  // to `out`, returns on clean EOF or a kShutdown frame. Frame-level
  // corruption ends the loop with the frame error; request-level problems
  // are answered in-band. Deterministic given deterministic requests.
  Status ServePipe(ByteStream* in, ByteStream* out);

  // Binds `path`, accepts connections, and serves until RequestDrain().
  // Each connection gets a reader thread; requests funnel through the
  // batcher into its batch workers (one with batching on, `workers` with
  // it off). Returns after the drain completes: in-flight requests
  // finished, telemetry flushed.
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

 private:
  struct Connection;

  // Receives each reply of a batch, with the request's index in it.
  using ReplyFn = std::function<void(size_t, const EvalResponse&)>;

  // Answers one tenant's requests in admission order through one
  // BatchEvaluation: the one place every served request is evaluated.
  // Holds the tenant lock, one fault-injector scope and one PoolScope
  // throughout, and hands each reply to `reply`, in admission order, as
  // soon as it is ready; `reply` runs under the tenant lock. Each item's
  // deadline_abs_us is on a clock that reads `now_us` at the call. A
  // fault-carrying request must come as a batch of one.
  void ServeBatch(const MicroBatch& batch, int64_t now_us,
                  const ReplyFn& reply);

  TenantState* GetOrCreateTenant(const std::string& name);
  void BatchWorkerLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  static Status WriteResponse(ByteStream* stream, std::mutex* write_mu,
                              const EvalResponse& response);

  const GraphPrompterModel* model_;
  const DatasetBundle* dataset_;
  const ServeConfig config_;

  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;

  // Admits every socket request.
  MicroBatcher batcher_;
  int drain_pipe_[2] = {-1, -1};
};

}  // namespace gp

#endif  // GRAPHPROMPTER_SERVE_SERVER_H_
