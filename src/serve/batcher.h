// Cross-request micro-batching for the serving daemon (DESIGN.md §11).
//
// Admitted requests land in per-tenant FIFO queues and coalesce into
// micro-batches that the worker evaluates through one packed
// BatchEvaluation pass (core/batch_eval.h). A tenant's queue flushes when
// the first-queued request has waited `window_us`, when `max_batch`
// requests are pending, or earlier when the soonest request deadline
// would be at risk: flush at `min_deadline - est_cost * batch_size`,
// where est_cost is an EWMA of observed per-request batch cost fed back
// via ReportBatchCost. Fault-carrying requests are barriers — they flush
// alone and never share a pass with clean traffic (the injector's draw
// stream is order-dependent; see core/batch_eval.h).
//
// Batch composition is timing-dependent by design; the determinism
// contract lives one level down (every reply is bitwise independent of
// which batch carried it). Demux order within a batch is admission order,
// which preserves per-tenant FIFO reply semantics.
//
// Telemetry: serve/batch_size and serve/batch_wait_us histograms,
// serve/batches counter, and per-reason flush counters
// serve/batch_flush_{window,size,deadline,barrier,drain}.

#ifndef GRAPHPROMPTER_SERVE_BATCHER_H_
#define GRAPHPROMPTER_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "util/stopwatch.h"

namespace gp {

struct MicroBatcherOptions {
  int64_t window_us = 1000;   // max coalesce wait for the head request
  int max_batch = 8;          // size cap per flush
  int64_t est_cost_us = 2000;  // initial per-request cost estimate (EWMA'd)
  int capacity = 64;          // total queued requests across tenants
};

// Why a batch left the queue.
enum class FlushReason { kWindow, kSize, kDeadline, kBarrier, kDrain };
const char* FlushReasonName(FlushReason reason);

// One queued request. `context` carries the server's per-connection state
// (opaque here so the batcher stays protocol-only and unit-testable).
struct BatchItem {
  EvalRequest request;
  std::shared_ptr<void> context;
  int64_t enqueue_us = 0;       // stamped by Enqueue (batcher clock)
  int64_t deadline_abs_us = 0;  // batcher clock; 0 = no deadline
  bool barrier = false;         // flush alone (fault-carrying request)
};

struct MicroBatch {
  std::string tenant;
  std::vector<BatchItem> items;  // admission order
  FlushReason reason = FlushReason::kWindow;
};

class MicroBatcher {
 public:
  explicit MicroBatcher(const MicroBatcherOptions& options);

  // Thread-safe. False = at capacity (the caller sheds the request).
  // Items of one tenant flush strictly in Enqueue order.
  bool Enqueue(BatchItem item);

  // Blocks until a batch is ready or the batcher is closed and empty
  // (returns false — the worker exits). After Close(), remaining queues
  // flush immediately with reason kDrain.
  bool NextBatch(MicroBatch* out);

  // Wakes every waiter; queued items drain via NextBatch.
  void Close();

  // Observed wall time of an executed batch; updates the per-request cost
  // EWMA used by the deadline-risk flush rule.
  void ReportBatchCost(int64_t wall_us, int batch_size);

  // The batcher's monotonic clock, for computing deadline_abs_us.
  int64_t NowMicros() const { return clock_.ElapsedMicros(); }

  int64_t EstimatedCostUs() const;

 private:
  // Pops the ready batch whose head waited longest, if any. Caller holds
  // mu_. Returns false and sets *due_us to the earliest future decision
  // point (or -1 if no timed wakeup is needed).
  bool PopReadyLocked(int64_t now_us, MicroBatch* out, int64_t* due_us);

  const MicroBatcherOptions options_;
  Stopwatch clock_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, std::deque<BatchItem>> queues_;  // name-ordered
  int queued_ = 0;
  bool closed_ = false;
  double est_cost_us_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_SERVE_BATCHER_H_
