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
#include <functional>
#include <thread>
#include <vector>

#include "core/batch_eval.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "tensor/buffer_pool.h"
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

// The batcher admits every socket request. Batching off is a batch cap of
// one with no window; batching on coalesces each tenant's clean requests.
MicroBatcherOptions AdmissionOptions(const ServeConfig& config) {
  const bool batching = config.batch_window_us > 0;
  MicroBatcherOptions options;
  options.window_us = batching ? config.batch_window_us : 0;
  options.max_batch = batching ? std::max(1, config.batch_max) : 1;
  options.capacity = std::max(1, config.queue_capacity);
  return options;
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

PromptServer::PromptServer(const GraphPrompterModel* model,
                           const DatasetBundle* dataset,
                           const ServeConfig& config)
    : model_(model),
      dataset_(dataset),
      config_(config),
      batcher_(AdmissionOptions(config)) {
  ReturnFreedMemory();
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

void PromptServer::ServeBatch(const MicroBatch& batch, int64_t now_us,
                              const ReplyFn& reply) {
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
  auto elapsed_us = [&sw]() {
    return static_cast<int64_t>(sw.ElapsedMicros());
  };
  // What each request comes to before the packed pass. A rejected request
  // never reaches its tenant's state; the others run the tenant sequence
  // (safe-mode draw, breaker accounting) in admission order.
  enum class Fate { kRejected, kExhausted, kExpired, kPacked };
  const size_t n = batch.items.size();
  std::vector<Fate> fate(n, Fate::kPacked);
  std::vector<EvalResponse> replies(n);
  auto reject = [&](size_t i, const Status& status) {
    fate[i] = Fate::kRejected;
    replies[i].status_code = static_cast<int32_t>(status.code());
    replies[i].message = status.message();
  };

  requests->Add(static_cast<int64_t>(n));
  TenantState* tenant = nullptr;
  // Same-tenant requests serialize on the tenant mutex (the warm augmenter
  // cache is single-writer); cross-tenant requests run in parallel.
  std::unique_lock<std::mutex> tenant_lock;
  for (size_t i = 0; i < n; ++i) {
    const EvalRequest& request = batch.items[i].request;
    replies[i].request_id = request.request_id;
    if (request.ways > dataset_->num_classes) {
      reject(i, InvalidArgumentError(
                    "request ways " + std::to_string(request.ways) +
                    " exceeds dataset classes (" +
                    std::to_string(dataset_->num_classes) + ")"));
      continue;
    }
    if (tenant == nullptr) {
      tenant = GetOrCreateTenant(batch.tenant);
      tenant_lock = std::unique_lock<std::mutex>(tenant->mu());
    }
    if (const Status status = tenant->ConfigureFaults(request.fault_spec);
        !status.ok()) {
      reject(i, status);
    }
  }

  // Tenant fault scoping: the tenant's injector — null for a clean tenant —
  // overrides any process-global injector for the whole batch, so chaos
  // configured for one tenant (or globally) can never leak into another
  // tenant's evaluation. A fault-carrying request always comes as a batch
  // of one (a MicroBatcher barrier, or Handle), because the injector draws
  // in packed stage order.
  FaultInjector* const injector =
      tenant != nullptr ? tenant->fault_injector() : nullptr;
  ScopedThreadFaultInjector scoped(injector);

  // Transient failures retry before the packed pass, so only a tenant
  // with an injector retries. A request whose budget is spent, here or
  // while it queued, stays out of the pass.
  std::vector<EvalConfig> configs;
  for (size_t i = 0; i < n; ++i) {
    if (fate[i] != Fate::kPacked) continue;
    const EvalRequest& request = batch.items[i].request;
    const int64_t budget_left = batch.items[i].deadline_abs_us - now_us;
    for (int attempt = 0;; ++attempt) {
      const int64_t remaining = budget_left - elapsed_us();
      if (remaining <= 0) {
        fate[i] = Fate::kExpired;
        break;
      }
      if (injector == nullptr || !injector->MaybeFailRequest()) {
        EvalConfig ec;
        ec.ways = request.ways;
        ec.shots = request.shots;
        ec.candidates_per_class = request.candidates_per_class;
        ec.num_queries = request.num_queries;
        ec.query_batch = request.query_batch;
        ec.trials = request.trials;
        ec.seed = request.seed;
        ec.deadline_us = remaining;
        configs.push_back(ec);
        break;
      }
      if (attempt >= config_.max_retries) {
        fate[i] = Fate::kExhausted;
        break;
      }
      ++replies[i].retries;
      retries_counter->Add(1);
      // Exponential backoff, capped by the remaining budget so a retrying
      // request can never overstay its deadline.
      const int64_t backoff = std::min(config_.retry_backoff_us << attempt,
                                       budget_left - elapsed_us());
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
    }
  }

  // One pool scope over the packed pass and the demux, so the demux reuses
  // the packed encode's buffers and the pool drains once, after the last
  // reply.
  PoolScope pool_scope;
  BatchEvaluation eval(*model_, *dataset_, std::move(configs));
  eval.Prepare();
  int row = 0;
  for (size_t i = 0; i < n; ++i) {
    const EvalRequest& request = batch.items[i].request;
    EvalResponse& resp = replies[i];
    if (fate[i] != Fate::kRejected) {
      // Stage-3 options depend on the breaker outcome of the previous
      // request, so safe mode is resolved right before this request's
      // demux.
      const bool safe_mode = tenant->BeginRequestSafeMode();
      const int64_t trips_before = tenant->breaker_trips();
      EvalResult result;
      result.deadline_expired = fate[i] == Fate::kExpired;
      if (fate[i] == Fate::kPacked) {
        BatchStage3Options options;
        options.disable_augmenter = safe_mode;
        options.shared_augmenter = config_.persist_tenant_cache && !safe_mode
                                       ? tenant->augmenter()
                                       : nullptr;
        result = eval.FinishRequest(row++, options);
        tenant->MergeDegradation(result.degradation);
      }
      const int64_t degradation_events = result.degradation.TotalEvents();
      tenant->FinishRequest(degradation_events, fate[i] == Fate::kExhausted);
      if (tenant->breaker_trips() > trips_before) breaker_counter->Add(1);
      resp.degradation_events = static_cast<uint64_t>(degradation_events);
      if (fate[i] == Fate::kExhausted) {
        unavailable_counter->Add(1);
        resp.status_code = static_cast<int32_t>(StatusCode::kUnavailable);
        resp.message = "transient failures exhausted the retry budget";
      } else if (result.deadline_expired) {
        deadline_counter->Add(1);
        resp.status_code =
            static_cast<int32_t>(StatusCode::kDeadlineExceeded);
        resp.message = "deadline of " +
                       std::to_string(RequestBudgetUs(request, config_)) +
                       "us expired";
      } else {
        resp.status_code = static_cast<int32_t>(StatusCode::kOk);
        resp.accuracy_mean = result.accuracy_percent.mean;
        resp.accuracy_std = result.accuracy_percent.std;
        resp.ms_per_query = result.ms_per_query;
      }
    }
    resp.server_latency_us = static_cast<uint64_t>(elapsed_us());
    latency->Observe(static_cast<double>(resp.server_latency_us));
    reply(i, resp);
  }
}

EvalResponse PromptServer::Handle(const EvalRequest& request) {
  MicroBatch batch;
  batch.tenant = request.tenant;
  BatchItem& item = batch.items.emplace_back();
  item.request = request;
  // The budget starts now, on a clock that reads 0 at the call.
  item.deadline_abs_us = RequestBudgetUs(request, config_);
  EvalResponse response;
  ServeBatch(batch, /*now_us=*/0,
             [&response](size_t, const EvalResponse& r) { response = r; });
  return response;
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
    const uint64_t request_id = request_or->request_id;
    BatchItem item;
    item.request = *std::move(request_or);
    item.context = conn;
    // The deadline budget starts at admission: time spent queued, and
    // coalescing with batching on, counts against it.
    item.deadline_abs_us =
        batcher_.NowMicros() + RequestBudgetUs(item.request, config_);
    // Fault-carrying requests are barriers: the injector's draw stream is
    // order-dependent, so they flush as batches of one (core/batch_eval.h).
    item.barrier = !item.request.fault_spec.empty();
    if (!batcher_.Enqueue(std::move(item))) {
      // Admission control: the batcher is at capacity, so shed immediately
      // instead of buffering unboundedly and blowing every queued deadline.
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

void PromptServer::BatchWorkerLoop() {
  MicroBatch batch;
  while (batcher_.NextBatch(&batch)) {
    Stopwatch sw;
    int64_t cost_us = 0;
    ServeBatch(batch, batcher_.NowMicros(),
               [&](size_t i, const EvalResponse& resp) {
                 auto* conn =
                     static_cast<Connection*>(batch.items[i].context.get());
                 const Status write_status =
                     WriteResponse(&conn->stream, &conn->write_mu, resp);
                 if (!write_status.ok()) {
                   // The client is gone; the work is done and accounted,
                   // just undeliverable.
                   LOG(WARNING) << "serve: response write failed: "
                                << write_status.ToString();
                 }
                 cost_us = sw.ElapsedMicros();
               });
    // Wall time of this batch through its last reply: the signal the
    // deadline-risk flush rule needs.
    batcher_.ReportBatchCost(cost_us, static_cast<int>(batch.items.size()));
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
  // With batching on, one batch worker serves every micro-batch, one batch
  // at a time (the demux must serialize per batch anyway); with batching
  // off, `workers` batch workers each serve batches of one.
  const bool batching = config_.batch_window_us > 0;
  const int workers = batching ? 1 : std::max(1, config_.workers);
  LOG(INFO) << "serve: listening on " << path
            << (batching ? " with one batch worker, batching window " +
                               std::to_string(config_.batch_window_us) +
                               "us max " + std::to_string(config_.batch_max)
                         : " with " + std::to_string(workers) +
                               " workers, batching off");
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([this] { BatchWorkerLoop(); });
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
  // polls see the drain pipe), then close the batcher: the workers finish
  // everything already admitted (a closed batcher flushes every remaining
  // queue at once) and exit.
  ::close(listen_fd);
  ::unlink(path.c_str());
  for (std::thread& t : readers) t.join();
  batcher_.Close();
  for (std::thread& t : threads) t.join();
  LOG(INFO) << "serve: drained, " << readers.size()
            << " connections closed";
  return Status::Ok();
}

}  // namespace gp
