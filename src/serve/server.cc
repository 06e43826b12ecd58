#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>

#include "core/batch_eval.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace gp {

// ------------------------------------------------------------ plumbing

namespace {

// A request's deadline budget: its own, or the server default when it
// carries none.
int64_t RequestBudgetUs(const EvalRequest& request, const ServeConfig& config) {
  return request.deadline_us > 0 ? static_cast<int64_t>(request.deadline_us)
                                 : config.default_deadline_us;
}

// Hands the memory that set-up (dataset build, pretraining) freed back to
// the OS before serving starts. glibc keeps freed memory resident in its
// heap, and how much depends on heap layout, so without this a daemon's
// peak RSS carries a few MB of layout-dependent slack from its set-up.
void ReturnFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

struct PromptServer::Connection {
  Connection(int fd, int cancel_fd) : stream(fd, /*owns_fd=*/true, cancel_fd) {}
  FdStream stream;
  std::mutex write_mu;
};

struct PromptServer::WorkItem {
  EvalRequest request;
  std::shared_ptr<Connection> conn;
};

// Mutex+cv bounded MPMC queue. TryPush never blocks: a full queue is the
// admission-control signal, not a place to wait.
class PromptServer::BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  bool TryPush(WorkItem item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks until an item is available or the queue is closed and drained.
  bool Pop(WorkItem* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WorkItem> items_;
  bool closed_ = false;
};

PromptServer::PromptServer(const GraphPrompterModel* model,
                           const DatasetBundle* dataset,
                           const ServeConfig& config)
    : model_(model), dataset_(dataset), config_(config) {
  ReturnFreedMemory();
  queue_ = std::make_unique<BoundedQueue>(
      static_cast<size_t>(std::max(1, config_.queue_capacity)));
  if (config_.batch_window_us > 0) {
    MicroBatcherOptions bo;
    bo.window_us = config_.batch_window_us;
    bo.max_batch = std::max(1, config_.batch_max);
    bo.est_cost_us = std::max<int64_t>(1, config_.batch_est_cost_us);
    // The batcher's queues are the admission bound in batched mode, so they
    // inherit the same capacity (and shed semantics) as the legacy queue.
    bo.capacity = std::max(1, config_.queue_capacity);
    batcher_ = std::make_unique<MicroBatcher>(bo);
  }
  if (::pipe(drain_pipe_) != 0) {
    LOG(WARNING) << "serve: drain pipe unavailable: " << ::strerror(errno);
    drain_pipe_[0] = drain_pipe_[1] = -1;
  }
}

PromptServer::~PromptServer() {
  if (drain_pipe_[0] >= 0) ::close(drain_pipe_[0]);
  if (drain_pipe_[1] >= 0) ::close(drain_pipe_[1]);
}

void PromptServer::RequestDrain() {
  if (drain_pipe_[1] < 0) return;
  // One byte, never drained by readers: the pipe stays level-readable so
  // every poll()-er (accept loop and all connection reads) sees it.
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(drain_pipe_[1], &byte, 1);
}

TenantState* PromptServer::GetOrCreateTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto& slot = tenants_[name];
  if (!slot) {
    // Deterministic per-tenant seed: same config + tenant id, same warm
    // cache behaviour run to run.
    const uint64_t seed =
        config_.seed ^ std::hash<std::string>{}(name) ^ 0x9e3779b97f4a7c15ull;
    slot = std::make_unique<TenantState>(name, config_.augmenter,
                                         config_.breaker, seed);
  }
  return slot.get();
}

std::vector<PromptServer::TenantSnapshot> PromptServer::SnapshotTenants() {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (auto& [name, tenant] : tenants_) {
    std::lock_guard<std::mutex> tenant_lock(tenant->mu());
    TenantSnapshot snap;
    snap.name = name;
    snap.requests = tenant->requests();
    snap.safe_mode_requests = tenant->safe_mode_requests();
    snap.breaker_trips = tenant->breaker_trips();
    snap.degradation_events = tenant->degradation().TotalEvents();
    snap.breaker_state = tenant->breaker_state();
    out.push_back(std::move(snap));
  }
  return out;
}

// ------------------------------------------------------------ handling

EvalResponse PromptServer::Handle(const EvalRequest& request) {
  static Counter* requests = Telemetry().GetCounter("serve/requests");
  static Counter* retries_counter = Telemetry().GetCounter("serve/retries");
  static Counter* deadline_counter =
      Telemetry().GetCounter("serve/deadline_exceeded");
  static Counter* unavailable_counter =
      Telemetry().GetCounter("serve/unavailable");
  static Counter* breaker_counter =
      Telemetry().GetCounter("serve/breaker_trips");
  static Histogram* latency = Telemetry().GetHistogram(
      "serve/latency_us", LatencyBucketBoundsUs());

  Stopwatch sw;
  requests->Add(1);
  EvalResponse resp;
  resp.request_id = request.request_id;

  if (request.ways > dataset_->num_classes) {
    resp.status_code = static_cast<int32_t>(StatusCode::kInvalidArgument);
    resp.message = "request ways " + std::to_string(request.ways) +
                   " exceeds dataset classes (" +
                   std::to_string(dataset_->num_classes) + ")";
    latency->Observe(static_cast<double>(sw.ElapsedMicros()));
    return resp;
  }

  TenantState* tenant = GetOrCreateTenant(request.tenant);
  // Same-tenant requests serialize on the tenant mutex (the warm augmenter
  // cache is single-writer); cross-tenant requests run in parallel.
  std::lock_guard<std::mutex> lock(tenant->mu());

  if (const Status fault_status = tenant->ConfigureFaults(request.fault_spec);
      !fault_status.ok()) {
    resp.status_code = static_cast<int32_t>(fault_status.code());
    resp.message = fault_status.message();
    latency->Observe(static_cast<double>(sw.ElapsedMicros()));
    return resp;
  }

  const bool safe_mode = tenant->BeginRequestSafeMode();
  const int64_t budget = RequestBudgetUs(request, config_);
  const int64_t trips_before = tenant->breaker_trips();

  // Tenant fault scoping: the tenant's injector — null for a clean tenant —
  // overrides any process-global injector for the duration of the request,
  // so chaos configured for one tenant (or globally) can never leak into
  // another tenant's evaluation.
  ScopedThreadFaultInjector scoped(tenant->fault_injector());

  EvalResult result;
  bool ran = false;
  bool exhausted_retries = false;
  bool out_of_budget = false;
  auto elapsed_us = [&sw]() {
    return static_cast<int64_t>(sw.ElapsedMicros());
  };
  for (int attempt = 0;; ++attempt) {
    const int64_t remaining = budget - elapsed_us();
    if (remaining <= 0) {
      out_of_budget = true;
      break;
    }
    FaultInjector* injector = tenant->fault_injector();
    if (injector != nullptr && injector->MaybeFailRequest()) {
      if (attempt >= config_.max_retries) {
        exhausted_retries = true;
        break;
      }
      ++resp.retries;
      retries_counter->Add(1);
      // Exponential backoff, capped by the remaining budget so a retrying
      // request can never overstay its deadline.
      const int64_t backoff = std::min(
          config_.retry_backoff_us << attempt, budget - elapsed_us());
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
      continue;
    }

    EvalConfig ec;
    ec.ways = request.ways;
    ec.shots = request.shots;
    ec.candidates_per_class = request.candidates_per_class;
    ec.num_queries = request.num_queries;
    ec.query_batch = request.query_batch;
    ec.trials = request.trials;
    ec.seed = request.seed;
    ec.deadline_us = remaining;
    ec.disable_augmenter = safe_mode;
    ec.shared_augmenter =
        config_.persist_tenant_cache && !safe_mode ? tenant->augmenter()
                                                   : nullptr;
    result = EvaluateInContext(*model_, *dataset_, ec);
    ran = true;
    break;
  }

  int64_t degradation_events = 0;
  if (ran) {
    degradation_events = result.degradation.TotalEvents();
    tenant->MergeDegradation(result.degradation);
  }
  tenant->FinishRequest(degradation_events, exhausted_retries);
  if (tenant->breaker_trips() > trips_before) breaker_counter->Add(1);

  if (exhausted_retries) {
    unavailable_counter->Add(1);
    resp.status_code = static_cast<int32_t>(StatusCode::kUnavailable);
    resp.message = "transient failures exhausted the retry budget";
  } else if (out_of_budget || (ran && result.deadline_expired)) {
    deadline_counter->Add(1);
    resp.status_code = static_cast<int32_t>(StatusCode::kDeadlineExceeded);
    resp.message = "deadline of " + std::to_string(budget) + "us expired";
  } else {
    resp.status_code = static_cast<int32_t>(StatusCode::kOk);
    resp.accuracy_mean = result.accuracy_percent.mean;
    resp.accuracy_std = result.accuracy_percent.std;
    resp.ms_per_query = result.ms_per_query;
  }
  resp.degradation_events = static_cast<uint64_t>(degradation_events);
  resp.server_latency_us = static_cast<uint64_t>(sw.ElapsedMicros());
  latency->Observe(static_cast<double>(sw.ElapsedMicros()));
  return resp;
}

// ------------------------------------------------------------ pipe mode

Status PromptServer::ServePipe(ByteStream* in, ByteStream* out) {
  static Counter* frames_rejected =
      Telemetry().GetCounter("serve/frames_rejected");
  for (;;) {
    auto frame_or = ReadFrame(in, config_.max_frame_bytes);
    if (!frame_or.ok()) {
      if (frame_or.status().code() == StatusCode::kOutOfRange) {
        return Status::Ok();  // clean end of stream
      }
      frames_rejected->Add(1);
      return frame_or.status();
    }
    if (frame_or->type == FrameType::kShutdown) return Status::Ok();
    if (frame_or->type == FrameType::kMetricsRequest) {
      Frame metrics_frame;
      metrics_frame.type = FrameType::kMetricsResponse;
      metrics_frame.payload = TelemetrySnapshotToJson(Telemetry().Snapshot());
      GP_RETURN_IF_ERROR(WriteFrame(out, metrics_frame));
      continue;
    }
    if (frame_or->type != FrameType::kEvalRequest) {
      frames_rejected->Add(1);
      continue;
    }
    EvalResponse resp;
    auto request_or = DecodeEvalRequest(frame_or->payload);
    if (!request_or.ok()) {
      resp.status_code = static_cast<int32_t>(request_or.status().code());
      resp.message = request_or.status().message();
    } else {
      resp = Handle(*request_or);
    }
    Frame response_frame;
    response_frame.type = FrameType::kEvalResponse;
    response_frame.payload = EncodeEvalResponse(resp);
    GP_RETURN_IF_ERROR(WriteFrame(out, response_frame));
  }
}

// ------------------------------------------------------------ socket mode

Status PromptServer::WriteResponse(ByteStream* stream, std::mutex* write_mu,
                                   const EvalResponse& response) {
  Frame frame;
  frame.type = FrameType::kEvalResponse;
  frame.payload = EncodeEvalResponse(response);
  std::lock_guard<std::mutex> lock(*write_mu);
  return WriteFrame(stream, frame);
}

void PromptServer::WorkerLoop() {
  WorkItem item;
  while (queue_->Pop(&item)) {
    const EvalResponse resp = Handle(item.request);
    const Status write_status =
        WriteResponse(&item.conn->stream, &item.conn->write_mu, resp);
    if (!write_status.ok()) {
      // The client is gone; the work is done and accounted, just undeliverable.
      LOG(WARNING) << "serve: response write failed: "
                   << write_status.ToString();
    }
  }
}

void PromptServer::ConnectionLoop(std::shared_ptr<Connection> conn) {
  static Counter* frames_rejected =
      Telemetry().GetCounter("serve/frames_rejected");
  static Counter* shed = Telemetry().GetCounter("serve/shed");
  conn->stream.ArmStallTimeout(config_.stall_timeout_ms);
  for (;;) {
    auto frame_or = ReadFrame(&conn->stream, config_.max_frame_bytes);
    if (!frame_or.ok()) {
      const StatusCode code = frame_or.status().code();
      if (code != StatusCode::kOutOfRange &&
          code != StatusCode::kUnavailable) {
        // Torn frame, CRC mismatch, bad magic, oversize, or mid-frame
        // stall: reject and close — the stream cannot be resynchronized.
        frames_rejected->Add(1);
        LOG(WARNING) << "serve: rejecting connection: "
                     << frame_or.status().ToString();
      }
      return;
    }
    if (frame_or->type == FrameType::kShutdown) return;
    if (frame_or->type == FrameType::kMetricsRequest) {
      // Metrics polls bypass admission entirely: the snapshot is cheap,
      // read-only, and must stay observable while the eval path is
      // saturated or shedding.
      Frame metrics_frame;
      metrics_frame.type = FrameType::kMetricsResponse;
      metrics_frame.payload = TelemetrySnapshotToJson(Telemetry().Snapshot());
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (!WriteFrame(&conn->stream, metrics_frame).ok()) return;
      continue;
    }
    if (frame_or->type != FrameType::kEvalRequest) {
      frames_rejected->Add(1);
      continue;
    }
    auto request_or = DecodeEvalRequest(frame_or->payload);
    if (!request_or.ok()) {
      EvalResponse resp;
      resp.status_code = static_cast<int32_t>(request_or.status().code());
      resp.message = request_or.status().message();
      (void)WriteResponse(&conn->stream, &conn->write_mu, resp);
      continue;
    }
    if (batcher_ != nullptr) {
      BatchItem bi;
      bi.request = *std::move(request_or);
      bi.context = conn;
      const uint64_t request_id = bi.request.request_id;
      // The deadline budget starts at admission: time spent coalescing in
      // the batch queue counts against it, exactly as queue wait inside
      // Handle's retry loop would.
      bi.deadline_abs_us =
          batcher_->NowMicros() + RequestBudgetUs(bi.request, config_);
      // Fault-carrying requests are barriers: the injector's draw stream is
      // order-dependent, so they flush alone and take the full
      // single-request path (core/batch_eval.h).
      bi.barrier = !bi.request.fault_spec.empty();
      if (!batcher_->Enqueue(std::move(bi))) {
        shed->Add(1);
        EvalResponse resp;
        resp.request_id = request_id;
        resp.status_code = static_cast<int32_t>(StatusCode::kUnavailable);
        resp.message = "server overloaded: admission queue full";
        (void)WriteResponse(&conn->stream, &conn->write_mu, resp);
      }
      continue;
    }
    WorkItem item;
    item.request = *std::move(request_or);
    item.conn = conn;
    const uint64_t request_id = item.request.request_id;
    if (!queue_->TryPush(std::move(item))) {
      // Admission control: the queue is full, shed immediately instead of
      // buffering unboundedly and blowing every queued deadline.
      shed->Add(1);
      EvalResponse resp;
      resp.request_id = request_id;
      resp.status_code = static_cast<int32_t>(StatusCode::kUnavailable);
      resp.message = "server overloaded: admission queue full";
      (void)WriteResponse(&conn->stream, &conn->write_mu, resp);
    }
  }
}

// ------------------------------------------------------------ batching

namespace {
// eval_index sentinels: items answered without a packed evaluation.
constexpr int kBarrierItem = -1;  // fault-carrying; full Handle() path
constexpr int kEarlyItem = -2;    // rejected during assembly (invalid ways)
}  // namespace

struct PromptServer::BatchInFlight {
  MicroBatch batch;
  // Per item: index into the BatchEvaluation's request list, or a sentinel.
  std::vector<int> eval_index;
  std::vector<EvalResponse> early;  // filled for kEarlyItem slots
  std::unique_ptr<BatchEvaluation> eval;
  Stopwatch sw;  // assembly start; feeds server_latency_us + latency hist
};

std::unique_ptr<PromptServer::BatchInFlight> PromptServer::AssembleBatch(
    MicroBatch batch) {
  static Counter* requests = Telemetry().GetCounter("serve/requests");

  auto work = std::make_unique<BatchInFlight>();
  work->batch = std::move(batch);
  const size_t n = work->batch.items.size();
  work->eval_index.assign(n, kBarrierItem);
  work->early.resize(n);

  std::vector<EvalConfig> configs;
  configs.reserve(n);
  const int64_t now_us = batcher_->NowMicros();
  for (size_t i = 0; i < n; ++i) {
    const BatchItem& item = work->batch.items[i];
    const EvalRequest& request = item.request;
    if (item.barrier) continue;  // Handle() does its own accounting
    requests->Add(1);
    if (request.ways > dataset_->num_classes) {
      EvalResponse& resp = work->early[i];
      resp.request_id = request.request_id;
      resp.status_code = static_cast<int32_t>(StatusCode::kInvalidArgument);
      resp.message = "request ways " + std::to_string(request.ways) +
                     " exceeds dataset classes (" +
                     std::to_string(dataset_->num_classes) + ")";
      work->eval_index[i] = kEarlyItem;
      continue;
    }
    EvalConfig ec;
    ec.ways = request.ways;
    ec.shots = request.shots;
    ec.candidates_per_class = request.candidates_per_class;
    ec.num_queries = request.num_queries;
    ec.query_batch = request.query_batch;
    ec.trials = request.trials;
    ec.seed = request.seed;
    // Remaining budget after coalescing. An already-expired request still
    // enters the evaluation with a 1us budget so its tenant accounting
    // (safe-mode draw, FinishRequest) matches the single-request path,
    // which also runs the full tenant sequence before reporting expiry.
    ec.deadline_us = std::max<int64_t>(1, item.deadline_abs_us - now_us);
    // disable_augmenter / shared_augmenter stay unset here: stage-3 options
    // depend on the breaker outcome of the previous request in the batch,
    // so ConsumeBatch resolves them per request under the tenant lock.
    work->eval_index[i] = static_cast<int>(configs.size());
    configs.push_back(ec);
  }

  if (!configs.empty()) {
    work->eval = std::make_unique<BatchEvaluation>(*model_, *dataset_,
                                                   std::move(configs));
  }
  return work;
}

void PromptServer::ConsumeBatch(BatchInFlight* work) {
  static Counter* deadline_counter =
      Telemetry().GetCounter("serve/deadline_exceeded");
  static Counter* breaker_counter =
      Telemetry().GetCounter("serve/breaker_trips");
  static Histogram* latency = Telemetry().GetHistogram(
      "serve/latency_us", LatencyBucketBoundsUs());

  for (size_t i = 0; i < work->batch.items.size(); ++i) {
    const BatchItem& item = work->batch.items[i];
    EvalResponse resp;
    if (work->eval_index[i] == kBarrierItem) {
      resp = Handle(item.request);
    } else if (work->eval_index[i] == kEarlyItem) {
      resp = std::move(work->early[i]);
      latency->Observe(static_cast<double>(work->sw.ElapsedMicros()));
    } else {
      const EvalRequest& request = item.request;
      resp.request_id = request.request_id;
      TenantState* tenant = GetOrCreateTenant(request.tenant);
      std::lock_guard<std::mutex> lock(tenant->mu());
      // Batched requests never carry a fault spec; the empty spec clears
      // any injector a previous chaos request left on this tenant, exactly
      // as the single-request path would.
      (void)tenant->ConfigureFaults("");
      const bool safe_mode = tenant->BeginRequestSafeMode();
      const int64_t trips_before = tenant->breaker_trips();
      ScopedThreadFaultInjector scoped(tenant->fault_injector());
      BatchStage3Options options;
      options.disable_augmenter = safe_mode;
      options.shared_augmenter = config_.persist_tenant_cache && !safe_mode
                                     ? tenant->augmenter()
                                     : nullptr;
      EvalResult result = work->eval->FinishRequest(work->eval_index[i],
                                                    options);
      const int64_t degradation_events = result.degradation.TotalEvents();
      tenant->MergeDegradation(result.degradation);
      tenant->FinishRequest(degradation_events, /*exhausted_retries=*/false);
      if (tenant->breaker_trips() > trips_before) breaker_counter->Add(1);
      if (result.deadline_expired) {
        deadline_counter->Add(1);
        resp.status_code = static_cast<int32_t>(StatusCode::kDeadlineExceeded);
        resp.message = "deadline of " +
                       std::to_string(RequestBudgetUs(request, config_)) +
                       "us expired";
      } else {
        resp.status_code = static_cast<int32_t>(StatusCode::kOk);
        resp.accuracy_mean = result.accuracy_percent.mean;
        resp.accuracy_std = result.accuracy_percent.std;
        resp.ms_per_query = result.ms_per_query;
      }
      resp.degradation_events = static_cast<uint64_t>(degradation_events);
      resp.server_latency_us = static_cast<uint64_t>(work->sw.ElapsedMicros());
      latency->Observe(static_cast<double>(work->sw.ElapsedMicros()));
    }
    auto* conn = static_cast<Connection*>(item.context.get());
    if (conn != nullptr) {
      const Status write_status =
          WriteResponse(&conn->stream, &conn->write_mu, resp);
      if (!write_status.ok()) {
        LOG(WARNING) << "serve: batched response write failed: "
                     << write_status.ToString();
      }
    }
  }
}

void PromptServer::BatchWorkerLoop() {
  MicroBatch batch;
  while (batcher_->NextBatch(&batch)) {
    const std::unique_ptr<BatchInFlight> work = AssembleBatch(std::move(batch));
    if (work->eval != nullptr) {
      // Clean batches only (fault requests are barriers): pin a null
      // injector so a process-global injector cannot leak into the packed
      // pass.
      ScopedThreadFaultInjector scoped(nullptr);
      work->eval->Prepare();
    }
    ConsumeBatch(work.get());
    // Wall time of this batch from assembly through demux: the signal the
    // deadline-risk flush rule needs.
    batcher_->ReportBatchCost(work->sw.ElapsedMicros(),
                              static_cast<int>(work->batch.items.size()));
  }
}

Status PromptServer::ServeUnixSocket(const std::string& path) {
  if (drain_pipe_[0] < 0) {
    return InternalError("serve: drain pipe unavailable");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // A worker writing to a connection the client already closed must get
  // EPIPE, not a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return InternalError(std::string("socket failed: ") + ::strerror(errno));
  }
  ::unlink(path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = ::strerror(errno);
    ::close(listen_fd);
    return InternalError("bind(" + path + ") failed: " + err);
  }
  if (::listen(listen_fd, 64) != 0) {
    const std::string err = ::strerror(errno);
    ::close(listen_fd);
    return InternalError("listen failed: " + err);
  }
  LOG(INFO) << "serve: listening on " << path << " with " << config_.workers
            << " workers"
            << (batcher_ != nullptr
                    ? ", batching window " +
                          std::to_string(config_.batch_window_us) + "us max " +
                          std::to_string(config_.batch_max)
                    : std::string(", batching off"));

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(std::max(1, config_.workers)));
  for (int w = 0; w < std::max(1, config_.workers); ++w) {
    workers.emplace_back([this] { WorkerLoop(); });
  }
  // One batch worker drives every micro-batch, one batch at a time (demux
  // must serialize per batch anyway).
  std::thread batch_worker;
  if (batcher_ != nullptr) {
    batch_worker = std::thread([this] { BatchWorkerLoop(); });
  }

  std::vector<std::thread> readers;
  for (;;) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = drain_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    auto conn = std::make_shared<Connection>(conn_fd, drain_pipe_[0]);
    readers.emplace_back(
        [this, conn = std::move(conn)] { ConnectionLoop(conn); });
  }

  // Graceful drain: stop accepting, unblock connection readers (their
  // polls see the drain pipe), let the workers finish everything already
  // admitted, then shut the queue down.
  ::close(listen_fd);
  ::unlink(path.c_str());
  for (std::thread& t : readers) t.join();
  queue_->Close();
  for (std::thread& t : workers) t.join();
  if (batcher_ != nullptr) {
    // Close() turns every remaining queue into an immediate kDrain flush;
    // the batch worker evaluates them, answers, and exits.
    batcher_->Close();
    if (batch_worker.joinable()) batch_worker.join();
  }
  LOG(INFO) << "serve: drained, " << readers.size()
            << " connections closed";
  return Status::Ok();
}

}  // namespace gp
