// Socket-mode concurrency test (runs under TSan via the `concurrency`
// ctest label): several tenants hammer the daemon from parallel client
// threads, one tenant under chaos, and the invariants are
//   - every request gets exactly one response (served or shed),
//   - the process survives torn frames and transient faults,
//   - degradation counters never bleed across tenants,
//   - SIGTERM-style drain finishes in-flight work and joins cleanly.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/graph_prompter.h"
#include "data/datasets.h"
#include "serve/byte_stream.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "serve/server.h"

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

std::string TestSocketPath(const char* tag) {
  return "/tmp/gp_serve_conc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

int ConnectOrDie(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // The accept loop may still be coming up; retry briefly.
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

// The soak body, parameterized on the server config so the same chaos
// mix runs against both the single-request worker pool and the
// micro-batching path (where clean traffic coalesces and fault-carrying
// requests flush as barriers).
void RunChaosSoak(const ServeConfig& sc, const char* tag) {
  DatasetBundle dataset = MakeArxivSim(0.25, 2);
  GraphPrompterModel model(TinyConfig(dataset.graph.feature_dim()));

  PromptServer server(&model, &dataset, sc);

  const std::string path = TestSocketPath(tag);
  std::thread server_thread([&server, &path] {
    const Status status = server.ServeUnixSocket(path);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  constexpr int kTenants = 4;
  constexpr int kRequestsPerTenant = 6;
  std::atomic<int> ok_responses{0};
  std::atomic<int> shed_responses{0};
  std::atomic<int> other_responses{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      // Tenant 3 runs chaotic: corrupted embeddings, transient request
      // failures, occasional torn frames sent mid-stream.
      const bool chaotic = t == kTenants - 1;
      FaultSpec torn_spec;
      torn_spec.serve_torn_prob = chaotic ? 0.3 : 0.0;
      torn_spec.seed = 100 + static_cast<uint64_t>(t);
      FaultInjector torn(torn_spec);

      int fd = ConnectOrDie(path);
      auto stream = std::make_unique<FdStream>(fd, /*owns_fd=*/true);
      for (int r = 0; r < kRequestsPerTenant; ++r) {
        EvalRequest req;
        req.tenant = tenant;
        req.request_id = static_cast<uint64_t>(t * 1000 + r);
        req.ways = 3;
        req.shots = 2;
        req.candidates_per_class = 4;
        req.num_queries = 6;
        req.query_batch = 3;
        req.trials = 1;
        req.seed = req.request_id + 1;
        if (chaotic) {
          req.fault_spec = "embed_nan=0.5,serve_fail=0.2,seed=21";
        }
        Frame frame;
        frame.type = FrameType::kEvalRequest;
        frame.payload = EncodeEvalRequest(req);
        const std::string wire = EncodeFrame(frame);

        const int64_t torn_bytes = torn.TornFrameBytes(wire.size());
        if (torn_bytes >= 0) {
          // Send a deliberately torn frame, abandon the connection, and
          // reconnect — the server must reject the tear and keep serving.
          (void)stream->Write(wire.data(),
                              static_cast<size_t>(torn_bytes));
          stream = std::make_unique<FdStream>(ConnectOrDie(path),
                                              /*owns_fd=*/true);
          --r;  // retry this request on the fresh connection
          continue;
        }
        ASSERT_TRUE(stream->Write(wire.data(), wire.size()).ok());
        auto reply = ReadFrame(stream.get());
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        auto resp = DecodeEvalResponse(reply->payload);
        ASSERT_TRUE(resp.ok());
        EXPECT_EQ(resp->request_id, req.request_id);
        const auto code = static_cast<StatusCode>(resp->status_code);
        if (code == StatusCode::kOk) {
          ++ok_responses;
          if (!chaotic) {
            EXPECT_EQ(resp->degradation_events, 0u)
                << tenant << " request " << r << " observed degradation";
          }
        } else if (code == StatusCode::kUnavailable) {
          ++shed_responses;
        } else {
          ++other_responses;
          ADD_FAILURE() << tenant << " got unexpected status "
                        << resp->status_code << ": " << resp->message;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  // Graceful drain: all in-flight work finishes, the server thread joins.
  server.RequestDrain();
  server_thread.join();

  // Every non-shed request was answered.
  EXPECT_GT(ok_responses.load(), 0);
  EXPECT_EQ(other_responses.load(), 0);

  // Isolation: only the chaos tenant may carry degradation events.
  bool saw_chaos_tenant = false;
  for (const auto& t : server.SnapshotTenants()) {
    if (t.name == "tenant-3") {
      saw_chaos_tenant = true;
    } else {
      EXPECT_EQ(t.degradation_events, 0)
          << t.name << " absorbed another tenant's degradation";
      EXPECT_EQ(t.breaker_trips, 0) << t.name;
    }
  }
  EXPECT_TRUE(saw_chaos_tenant);
  ::unlink(path.c_str());
}

TEST(ServeConcurrencyTest, MultiTenantChaosSoakStaysIsolated) {
  ServeConfig sc;
  sc.workers = 2;
  sc.queue_capacity = 8;
  sc.default_deadline_us = 30'000'000;
  RunChaosSoak(sc, "serial");
}

// The same soak with micro-batching on: coalesced clean traffic, barrier
// flushes for the chaos tenant's fault-carrying requests, and the handoff
// from connection readers to the batch worker all run under TSan via the
// `concurrency` label.
TEST(ServeConcurrencyTest, BatchedChaosSoakStaysIsolated) {
  ServeConfig sc;
  sc.workers = 2;
  sc.queue_capacity = 16;
  sc.default_deadline_us = 30'000'000;
  sc.batch_window_us = 2000;
  sc.batch_max = 4;
  RunChaosSoak(sc, "batched");
}

}  // namespace
}  // namespace gp
