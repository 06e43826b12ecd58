#include "serve/batcher.h"

#include <algorithm>
#include <chrono>

#include "obs/telemetry.h"
#include "util/logging.h"

namespace gp {

namespace {

// Batch-size histogram bounds: fine-grained where batches actually land
// (the size cap defaults to 8), coarse above.
const std::vector<double>& BatchSizeBounds() {
  static const std::vector<double> bounds = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
  return bounds;
}

Counter* FlushCounter(FlushReason reason) {
  static Counter* window = Telemetry().GetCounter("serve/batch_flush_window");
  static Counter* size = Telemetry().GetCounter("serve/batch_flush_size");
  static Counter* deadline =
      Telemetry().GetCounter("serve/batch_flush_deadline");
  static Counter* barrier =
      Telemetry().GetCounter("serve/batch_flush_barrier");
  static Counter* drain = Telemetry().GetCounter("serve/batch_flush_drain");
  switch (reason) {
    case FlushReason::kWindow:
      return window;
    case FlushReason::kSize:
      return size;
    case FlushReason::kDeadline:
      return deadline;
    case FlushReason::kBarrier:
      return barrier;
    case FlushReason::kDrain:
      return drain;
  }
  return window;
}

}  // namespace

const char* FlushReasonName(FlushReason reason) {
  switch (reason) {
    case FlushReason::kWindow:
      return "window";
    case FlushReason::kSize:
      return "size";
    case FlushReason::kDeadline:
      return "deadline";
    case FlushReason::kBarrier:
      return "barrier";
    case FlushReason::kDrain:
      return "drain";
  }
  return "?";
}

MicroBatcher::MicroBatcher(const MicroBatcherOptions& options)
    : options_(options),
      est_cost_us_(static_cast<double>(std::max<int64_t>(
          1, options.est_cost_us))) {
  CHECK_GE(options.max_batch, 1);
  CHECK_GE(options.window_us, 0);
  CHECK_GE(options.capacity, 1);
}

bool MicroBatcher::Enqueue(BatchItem item) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || queued_ >= options_.capacity) return false;
  item.enqueue_us = NowMicros();
  queues_[item.request.tenant].push_back(std::move(item));
  ++queued_;
  cv_.notify_one();
  return true;
}

bool MicroBatcher::PopReadyLocked(int64_t now_us, MicroBatch* out,
                                  int64_t* due_us) {
  *due_us = -1;
  const std::deque<BatchItem>* best_queue = nullptr;
  const std::string* best_tenant = nullptr;
  FlushReason best_reason = FlushReason::kWindow;
  for (const auto& [tenant, queue] : queues_) {
    if (queue.empty()) continue;
    const BatchItem& head = queue.front();

    // What would flush right now: the batch is the longest barrier-free
    // prefix (a barrier at the head flushes alone).
    int n = 0;
    int64_t min_deadline = 0;
    if (head.barrier) {
      n = 1;
    } else {
      for (const BatchItem& it : queue) {
        if (it.barrier || n >= options_.max_batch) break;
        if (it.deadline_abs_us > 0 &&
            (min_deadline == 0 || it.deadline_abs_us < min_deadline)) {
          min_deadline = it.deadline_abs_us;
        }
        ++n;
      }
    }

    FlushReason reason;
    const int64_t window_due = head.enqueue_us + options_.window_us;
    // Clamped at 0: a head already past its risk point must flush now,
    // not collide with the -1 "no deadline" sentinel and idle out the
    // full window.
    const int64_t deadline_due =
        min_deadline > 0
            ? std::max<int64_t>(
                  0, min_deadline - static_cast<int64_t>(est_cost_us_) * n)
            : -1;
    if (closed_) {
      reason = FlushReason::kDrain;
    } else if (head.barrier) {
      reason = FlushReason::kBarrier;
    } else if (n >= options_.max_batch) {
      reason = FlushReason::kSize;
    } else if (deadline_due >= 0 && now_us >= deadline_due) {
      reason = FlushReason::kDeadline;
    } else if (now_us >= window_due) {
      reason = FlushReason::kWindow;
    } else {
      int64_t due = window_due;
      if (deadline_due >= 0) due = std::min(due, deadline_due);
      if (*due_us < 0 || due < *due_us) *due_us = due;
      continue;
    }
    // Among ready tenants, serve the longest-waiting head first (FIFO
    // fairness across tenants); the map's name order breaks exact ties
    // deterministically.
    if (best_queue == nullptr ||
        head.enqueue_us < best_queue->front().enqueue_us) {
      best_queue = &queue;
      best_tenant = &tenant;
      best_reason = reason;
    }
  }
  if (best_queue == nullptr) return false;

  out->tenant = *best_tenant;  // copy before the queue (and its key) go away
  auto& queue = queues_[out->tenant];
  out->reason = best_reason;
  out->items.clear();
  if (queue.front().barrier) {
    out->items.push_back(std::move(queue.front()));
    queue.pop_front();
  } else {
    while (!queue.empty() && !queue.front().barrier &&
           static_cast<int>(out->items.size()) < options_.max_batch) {
      out->items.push_back(std::move(queue.front()));
      queue.pop_front();
    }
  }
  queued_ -= static_cast<int>(out->items.size());
  if (queue.empty()) queues_.erase(out->tenant);

  static Counter* batches = Telemetry().GetCounter("serve/batches");
  static Histogram* batch_size =
      Telemetry().GetHistogram("serve/batch_size", BatchSizeBounds());
  static Histogram* batch_wait = Telemetry().GetHistogram(
      "serve/batch_wait_us", LatencyBucketBoundsUs());
  batches->Add(1);
  FlushCounter(best_reason)->Add(1);
  batch_size->Observe(static_cast<double>(out->items.size()));
  for (const BatchItem& it : out->items) {
    batch_wait->Observe(static_cast<double>(now_us - it.enqueue_us));
  }
  return true;
}

bool MicroBatcher::NextBatch(MicroBatch* out) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    int64_t due_us = -1;
    if (PopReadyLocked(NowMicros(), out, &due_us)) return true;
    if (closed_ && queued_ == 0) return false;
    if (due_us >= 0) {
      const int64_t wait = std::max<int64_t>(due_us - NowMicros(), 0);
      cv_.wait_for(lock, std::chrono::microseconds(wait + 1));
    } else {
      cv_.wait(lock);
    }
  }
}

void MicroBatcher::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

void MicroBatcher::ReportBatchCost(int64_t wall_us, int batch_size) {
  if (batch_size <= 0) return;
  const double per_request =
      static_cast<double>(wall_us) / static_cast<double>(batch_size);
  std::lock_guard<std::mutex> lock(mu_);
  est_cost_us_ = est_cost_us_ * 0.8 + per_request * 0.2;
}

}  // namespace gp
