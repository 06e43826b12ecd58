// gp_serve — the long-lived multi-tenant prompt-serving daemon.
//
// Loads a GraphPrompter model (optionally from an integrity-checked
// checkpoint) over a named synthetic dataset and serves EvaluateInContext
// requests over the framed binary protocol (src/serve).
//
//   # socket mode (daemon): serve until SIGTERM, then drain gracefully.
//   # Every request is admitted to one batcher (--queue bounds it; a full
//   # one sheds with kUnavailable) and its deadline budget starts there.
//   # With batching off, --workers threads serve it one request at a time.
//   ./tools/gp_serve --socket=/tmp/gp.sock [--workers=2] [--queue=16]
//
//   # pipe mode: frames on stdin/stdout, single-threaded, deterministic
//   ./tools/gp_serve --pipe < requests.bin > responses.bin
//
// Common flags:
//   --checkpoint=PATH    load model weights (CRC-verified; a corrupted or
//                        truncated file exits 1 with a typed error)
//   --dataset=NAME       arxiv|mag|wiki|concept|fb15k|nell  (default arxiv)
//   --scale=X            dataset scale (default 0.25)
//   --seed=N             model/server seed (default 1)
//   --deadline-us=N      default per-request budget (default 250000)
//   --retries=N          transient-failure retries per request (default 2)
//   --batch-window-us=N  coalesce admitted requests per tenant for up to
//                        N microseconds and run them as one packed batch;
//                        0 (default) disables batching. With batching on,
//                        one batch worker serves every request and
//                        --workers goes unused.
//   --batch-max=N        batch size cap with batching on (default 8)
//   --pretrain-steps=N   pretrain when no checkpoint is given (default 0)
//   --telemetry=PATH     write a telemetry snapshot on exit
//
// SIGTERM/SIGINT start a graceful drain: in-flight requests finish, the
// telemetry export is flushed, and the process exits 0.

#include <signal.h>

#include <cstdio>
#include <string>

#include "core/graph_prompter.h"
#include "core/pretrain.h"
#include "data/datasets.h"
#include "nn/serialize.h"
#include "obs/export.h"
#include "serve/byte_stream.h"
#include "serve/server.h"
#include "util/cpuid.h"
#include "util/flags.h"

namespace gp {
namespace {

PromptServer* g_server = nullptr;

void HandleTermination(int) {
  // Async-signal-safe: RequestDrain is one pipe write.
  if (g_server != nullptr) g_server->RequestDrain();
}

DatasetBundle MakeNamedDataset(const std::string& name, double scale,
                               uint64_t seed) {
  if (name == "mag") return MakeMagSim(scale, seed);
  if (name == "wiki") return MakeWikiSim(scale, seed);
  if (name == "concept") return MakeConceptNetSim(scale, seed);
  if (name == "fb15k") return MakeFb15kSim(scale, seed);
  if (name == "nell") return MakeNellSim(scale, seed);
  return MakeArxivSim(scale, seed);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  ConfigureSimdFromFlags(flags);
  ConfigureObservability(flags.GetString("telemetry", ""),
                         flags.GetString("trace", ""));

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const DatasetBundle dataset =
      MakeNamedDataset(flags.GetString("dataset", "arxiv"),
                       flags.GetDouble("scale", 0.25), seed + 1);

  GraphPrompterConfig config =
      FullGraphPrompterConfig(dataset.graph.feature_dim(), seed);
  config.embedding_dim = static_cast<int>(flags.GetInt("embedding-dim", 32));
  GraphPrompterModel model(config);

  const std::string checkpoint = flags.GetString("checkpoint", "");
  if (!checkpoint.empty()) {
    // Integrity-checked load: truncation and corruption surface as typed
    // kDataLoss/kInvalidArgument errors, never as silently garbage weights.
    const Status status = LoadModule(&model, checkpoint);
    if (!status.ok()) {
      std::fprintf(stderr, "gp_serve: cannot load checkpoint %s: %s\n",
                   checkpoint.c_str(), status.ToString().c_str());
      return 1;
    }
    std::printf("gp_serve: loaded checkpoint %s\n", checkpoint.c_str());
  } else {
    const int steps = static_cast<int>(flags.GetInt("pretrain-steps", 0));
    if (steps > 0) {
      PretrainConfig pretrain;
      pretrain.steps = steps;
      pretrain.ways = 3;
      Pretrain(&model, dataset, pretrain);
      std::printf("gp_serve: pretrained %d steps (no checkpoint given)\n",
                  steps);
    }
  }

  ServeConfig sc;
  sc.workers = static_cast<int>(flags.GetInt("workers", 2));
  sc.queue_capacity = static_cast<int>(flags.GetInt("queue", 16));
  sc.default_deadline_us = flags.GetInt("deadline-us", 250000);
  sc.max_retries = static_cast<int>(flags.GetInt("retries", 2));
  sc.batch_window_us = flags.GetInt("batch-window-us", 0);
  sc.batch_max = static_cast<int>(flags.GetInt("batch-max", 8));
  sc.seed = seed;
  PromptServer server(&model, &dataset, sc);
  g_server = &server;
  ::signal(SIGTERM, HandleTermination);
  ::signal(SIGINT, HandleTermination);

  Status serve_status;
  if (flags.GetBool("pipe", false)) {
    FdStream in(0);
    FdStream out(1);
    serve_status = server.ServePipe(&in, &out);
  } else {
    const std::string socket_path =
        flags.GetString("socket", "/tmp/gp_serve.sock");
    serve_status = server.ServeUnixSocket(socket_path);
  }
  g_server = nullptr;

  for (const auto& tenant : server.SnapshotTenants()) {
    std::fprintf(stderr,
                 "gp_serve: tenant %s requests=%lld degradation=%lld "
                 "trips=%lld safe_mode=%lld\n",
                 tenant.name.c_str(),
                 static_cast<long long>(tenant.requests),
                 static_cast<long long>(tenant.degradation_events),
                 static_cast<long long>(tenant.breaker_trips),
                 static_cast<long long>(tenant.safe_mode_requests));
  }
  const Status export_status = ExportConfiguredObservability();
  if (!export_status.ok()) {
    std::fprintf(stderr, "gp_serve: telemetry export failed: %s\n",
                 export_status.ToString().c_str());
  }
  if (!serve_status.ok()) {
    std::fprintf(stderr, "gp_serve: serving ended with error: %s\n",
                 serve_status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gp

int main(int argc, char** argv) { return gp::Run(argc, argv); }
