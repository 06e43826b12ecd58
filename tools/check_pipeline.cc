// Pipelined-executor gate for scripts/check.sh: reads the bench_pipeline
// report (results/BENCH_pipeline.json) and fails unless:
//   - pretraining produced bitwise-identical loss/accuracy curves with the
//     pipeline on vs off — this gate is unconditional, determinism is the
//     contract (DESIGN.md §13);
//   - on multi-core hardware (recorded hardware_concurrency >= 2), the
//     pretrain speedup clears --min-speedup (default 1.05x). Single-core
//     machines skip the throughput gate: there is nothing to overlap
//     with, and the pipeline only has to not corrupt results.
//
//   ./tools/check_pipeline <BENCH_pipeline.json> [--min-speedup=1.05]
//
// Exits 0 when the gate passes, 1 otherwise.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "util/flags.h"

namespace gp {
namespace {

using json::JsonValue;

bool ReadResult(const JsonValue& root, const std::string& label,
                double* out) {
  const JsonValue* results = root.Find("results");
  if (results == nullptr || !results->IsArray()) return false;
  for (const JsonValue& entry : results->elements) {
    if (!entry.IsObject()) continue;
    const JsonValue* entry_label = entry.Find("label");
    const JsonValue* value = entry.Find("value");
    if (entry_label == nullptr || value == nullptr) continue;
    if (entry_label->string_value == label && value->IsNumber()) {
      *out = value->number_value;
      return true;
    }
  }
  return false;
}

int Run(const std::string& path, double min_speedup) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check_pipeline: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto root_or = json::ParseJson(buffer.str());
  if (!root_or.ok()) {
    std::fprintf(stderr, "check_pipeline: %s: parse error: %s\n",
                 path.c_str(), root_or.status().ToString().c_str());
    return 1;
  }
  const JsonValue& root = *root_or;

  bool pass = true;
  double match = 0;
  if (!ReadResult(root, "pipeline/pretrain/bitwise_match", &match) ||
      match != 1.0) {
    std::fprintf(stderr,
                 "check_pipeline: FAIL pipeline/pretrain/bitwise_match: "
                 "pipelined pretrain diverged from the serial schedule (or "
                 "metric missing) — results must be bitwise identical\n");
    pass = false;
  }

  double hw = 0;
  if (!ReadResult(root, "pipeline/hardware_concurrency", &hw)) {
    std::fprintf(stderr,
                 "check_pipeline: FAIL missing pipeline/hardware_concurrency"
                 "\n");
    return 1;
  }
  double speedup = 0;
  if (!ReadResult(root, "pipeline/pretrain/speedup", &speedup)) {
    std::fprintf(stderr, "check_pipeline: FAIL missing speedup metric\n");
    return 1;
  }
  if (hw >= 2.0) {
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "check_pipeline: FAIL pretrain speedup %.3fx under the "
                   "%.2fx floor on %g-way hardware\n",
                   speedup, min_speedup, hw);
      pass = false;
    } else {
      std::printf("check_pipeline: pretrain speedup %.3fx clears the %.2fx "
                  "floor\n", speedup, min_speedup);
    }
  } else {
    std::printf("check_pipeline: single-core host (hw=%g) — throughput gate "
                "skipped, bitwise gate still applies (pretrain %.3fx)\n",
                hw, speedup);
  }
  if (pass) std::printf("check_pipeline: PASS (%s)\n", path.c_str());
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace gp

int main(int argc, char** argv) {
  gp::Flags flags(argc, argv);
  std::string path = "results/BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      path = argv[i];
      break;
    }
  }
  return gp::Run(path, flags.GetDouble("min-speedup", 1.05));
}
