// Report gate for scripts/check.sh: reads one JSON file (a BENCH_*.json
// report, a telemetry snapshot or a Chrome trace) and checks each gate
// given on the command line against it.
//
//   ./tools/check_bench <file.json> ["<metric> <op> <bound>" ...]
//
// A gate's three fields are split on whitespace, because labels hold '='.
//   metric  a results[].label, else a counters member. fnmatch(3)
//           wildcards, which do not cross '/', make the gate hold for every
//           match, and a metric that matches nothing fails.
//   op      <, <=, ==, >= or >.
//   bound   a number, or <factor>*<metric> for one metric of the file,
//           as in "serve/batched/p99_us <= 1.5*serve/unbatched/p99_us".
//
// With no gates the file only has to parse. Exits 1 on a violated gate, a
// missing metric, a malformed gate, or a file that cannot be read or
// parsed, and 0 otherwise.

#include <fnmatch.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace gp {
namespace {

using json::JsonValue;

// A metric's name and value; the value is null for a result without one.
using Metric = std::pair<std::string, const JsonValue*>;

// The metrics whose names match `pattern`: results[] labels, else counters.
std::vector<Metric> Lookup(const JsonValue& root, const std::string& pattern) {
  std::vector<Metric> found;
  auto consider = [&](const std::string& name, const JsonValue* value) {
    if (fnmatch(pattern.c_str(), name.c_str(), FNM_PATHNAME) == 0) {
      found.emplace_back(name, value);
    }
  };
  if (const JsonValue* results = root.Find("results")) {
    for (const JsonValue& entry : results->elements) {
      const JsonValue* label = entry.Find("label");
      if (label != nullptr && label->IsString()) {
        consider(label->string_value, entry.Find("value"));
      }
    }
  }
  const JsonValue* counters = root.Find("counters");
  if (found.empty() && counters != nullptr) {
    for (const auto& [name, value] : counters->members) consider(name, &value);
  }
  return found;
}

bool IsNumber(const JsonValue* value) {
  return value != nullptr && value->IsNumber();
}

// Parses all of `text` as a number.
bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0';
}

// A bound is a number, or <factor>*<metric> naming one numeric metric.
bool ResolveBound(const JsonValue& root, const std::string& text,
                  double* out) {
  const size_t star = text.find('*');
  if (star == std::string::npos) return ParseNumber(text, out);
  double factor = 0.0;
  const std::vector<Metric> base = Lookup(root, text.substr(star + 1));
  if (!ParseNumber(text.substr(0, star), &factor) || base.size() != 1 ||
      !IsNumber(base[0].second)) {
    return false;
  }
  *out = factor * base[0].second->number_value;
  return true;
}

bool Holds(double value, const std::string& op, double bound) {
  if (op == "<") return value < bound;
  if (op == "<=") return value <= bound;
  if (op == "==") return value == bound;
  if (op == ">=") return value >= bound;
  return value > bound;
}

// Checks one gate, printing its verdict on stdout, one line per matched
// metric, so the lines keep gate order when the output is piped.
bool CheckGate(const JsonValue& root, const std::string& gate) {
  std::istringstream fields(gate);
  std::string metric, op, bound_text, extra;
  fields >> metric >> op >> bound_text >> extra;
  if (bound_text.empty() || !extra.empty() ||
      (op != "<" && op != "<=" && op != "==" && op != ">=" && op != ">")) {
    std::printf(
        "check_bench: FAIL malformed gate '%s' (want \"<metric> <op> "
        "<bound>\", op one of < <= == >= >)\n",
        gate.c_str());
    return false;
  }
  double bound = 0.0;
  if (!ResolveBound(root, bound_text, &bound)) {
    std::printf(
        "check_bench: FAIL bound '%s' is neither a number nor "
        "<factor>*<metric> for one numeric metric\n",
        bound_text.c_str());
    return false;
  }
  const std::vector<Metric> matches = Lookup(root, metric);
  if (matches.empty()) {
    std::printf("check_bench: FAIL %s: no such metric\n", metric.c_str());
    return false;
  }
  bool ok = true;
  for (const auto& [name, value] : matches) {
    if (!IsNumber(value)) {
      std::printf("check_bench: FAIL %s is not a number\n", name.c_str());
      ok = false;
      continue;
    }
    const bool pass = Holds(value->number_value, op, bound);
    std::printf("check_bench: %s %s = %.10g %s %.10g\n",
                pass ? "PASS" : "FAIL", name.c_str(), value->number_value,
                op.c_str(), bound);
    ok = ok && pass;
  }
  return ok;
}

}  // namespace
}  // namespace gp

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.json> [\"<metric> <op> <bound>\" ...]\n",
                 argv[0]);
    return 1;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "check_bench: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto root_or = gp::json::ParseJson(buffer.str());
  if (!root_or.ok()) {
    std::fprintf(stderr, "check_bench: %s: parse error: %s\n", argv[1],
                 root_or.status().ToString().c_str());
    return 1;
  }
  bool ok = true;
  for (int i = 2; i < argc; ++i) ok = gp::CheckGate(*root_or, argv[i]) && ok;
  std::printf("check_bench: %s: %s\n", argv[1], ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
