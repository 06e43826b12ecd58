#include "util/fault.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "obs/telemetry.h"
#include "util/logging.h"

namespace gp {

namespace {

// Owns the installed global injector; raw pointer handed out to sites.
std::unique_ptr<FaultInjector>& GlobalInjectorSlot() {
  static std::unique_ptr<FaultInjector> slot;
  return slot;
}

FaultInjector* g_injector = nullptr;

// Thread-local override: distinguishes "no override installed" from an
// explicit null override (which suppresses the global injector).
struct ThreadOverride {
  bool installed = false;
  FaultInjector* injector = nullptr;
};
thread_local ThreadOverride t_override;

// Kept in sync with the grammar in fault.h; quoted by the unknown-kind
// error so a typo'd --fault spec names its alternatives.
constexpr char kValidKinds[] =
    "embed_nan, prompt_drop, prompt_dup, cache_poison, file, slow_every, "
    "slow_ms, serve_fail, serve_torn, serve_stall, serve_stall_ms, seed";

StatusOr<double> ParseProbability(const std::string& key,
                                  const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return InvalidArgumentError("fault spec: " + key +
                                " needs a probability in [0,1], got '" +
                                value + "'");
  }
  return p;
}

StatusOr<int64_t> ParseInt(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < 0) {
    return InvalidArgumentError("fault spec: " + key +
                                " needs a non-negative integer, got '" +
                                value + "'");
  }
  return static_cast<int64_t>(v);
}

}  // namespace

const char* FileFaultModeName(FileFaultMode mode) {
  switch (mode) {
    case FileFaultMode::kNone:
      return "none";
    case FileFaultMode::kTruncate:
      return "truncate";
    case FileFaultMode::kBitFlip:
      return "bitflip";
    case FileFaultMode::kMagic:
      return "magic";
  }
  return "?";
}

bool FaultSpec::Any() const {
  return embed_nan_prob > 0.0 || prompt_drop_prob > 0.0 ||
         prompt_dup_prob > 0.0 || cache_poison_prob > 0.0 ||
         file_mode != FileFaultMode::kNone || slow_every > 0 ||
         serve_fail_prob > 0.0 || serve_torn_prob > 0.0 ||
         serve_stall_prob > 0.0;
}

StatusOr<FaultSpec> ParseFaultSpec(const std::string& spec) {
  FaultSpec out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("fault spec item needs kind=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "embed_nan") {
      GP_ASSIGN_OR_RETURN(out.embed_nan_prob, ParseProbability(key, value));
    } else if (key == "prompt_drop") {
      GP_ASSIGN_OR_RETURN(out.prompt_drop_prob, ParseProbability(key, value));
    } else if (key == "prompt_dup") {
      GP_ASSIGN_OR_RETURN(out.prompt_dup_prob, ParseProbability(key, value));
    } else if (key == "cache_poison") {
      GP_ASSIGN_OR_RETURN(out.cache_poison_prob,
                          ParseProbability(key, value));
    } else if (key == "file") {
      if (value == "truncate") {
        out.file_mode = FileFaultMode::kTruncate;
      } else if (value == "bitflip") {
        out.file_mode = FileFaultMode::kBitFlip;
      } else if (value == "magic") {
        out.file_mode = FileFaultMode::kMagic;
      } else {
        return InvalidArgumentError(
            "fault spec: file needs truncate|bitflip|magic, got '" + value +
            "'");
      }
    } else if (key == "slow_every") {
      GP_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      out.slow_every = static_cast<int>(v);
    } else if (key == "slow_ms") {
      GP_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      out.slow_ms = static_cast<int>(v);
    } else if (key == "serve_fail") {
      GP_ASSIGN_OR_RETURN(out.serve_fail_prob, ParseProbability(key, value));
    } else if (key == "serve_torn") {
      GP_ASSIGN_OR_RETURN(out.serve_torn_prob, ParseProbability(key, value));
    } else if (key == "serve_stall") {
      GP_ASSIGN_OR_RETURN(out.serve_stall_prob, ParseProbability(key, value));
    } else if (key == "serve_stall_ms") {
      GP_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      out.serve_stall_ms = static_cast<int>(v);
    } else if (key == "seed") {
      GP_ASSIGN_OR_RETURN(int64_t v, ParseInt(key, value));
      out.seed = static_cast<uint64_t>(v);
    } else {
      return InvalidArgumentError("fault spec: unknown fault kind '" + key +
                                  "' (valid kinds: " + kValidKinds + ")");
    }
  }
  return out;
}

FaultInjector::FaultInjector(const FaultSpec& spec)
    : spec_(spec), rng_(spec.seed) {}

int FaultInjector::CorruptRows(std::vector<float>* data, int rows, int cols) {
  if (spec_.embed_nan_prob <= 0.0 || rows == 0 || cols == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  int corrupted = 0;
  for (int r = 0; r < rows; ++r) {
    if (!rng_.Bernoulli(spec_.embed_nan_prob)) continue;
    float* row = data->data() + static_cast<size_t>(r) * cols;
    // Poison every 4th element, mixing NaN and +/-Inf so both non-finite
    // classes are exercised downstream.
    for (int c = 0; c < cols; c += 4) {
      switch (rng_.UniformInt(3)) {
        case 0:
          row[c] = std::numeric_limits<float>::quiet_NaN();
          break;
        case 1:
          row[c] = std::numeric_limits<float>::infinity();
          break;
        default:
          row[c] = -std::numeric_limits<float>::infinity();
          break;
      }
    }
    ++corrupted;
  }
  if (corrupted > 0) {
    static Counter* c = Telemetry().GetCounter("fault/embed_rows_corrupted");
    c->Add(corrupted);
  }
  return corrupted;
}

int FaultInjector::MutatePromptSet(std::vector<int>* selected) {
  if ((spec_.prompt_drop_prob <= 0.0 && spec_.prompt_dup_prob <= 0.0) ||
      selected->empty()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  int mutations = 0;
  std::vector<int> mutated;
  mutated.reserve(selected->size() * 2);
  for (int p : *selected) {
    if (spec_.prompt_drop_prob > 0.0 &&
        rng_.Bernoulli(spec_.prompt_drop_prob)) {
      ++mutations;  // dropped
      continue;
    }
    mutated.push_back(p);
    if (spec_.prompt_dup_prob > 0.0 &&
        rng_.Bernoulli(spec_.prompt_dup_prob)) {
      mutated.push_back(p);  // duplicated
      ++mutations;
    }
  }
  // A total wipeout would leave the task graph with zero prompts; a real
  // lossy transport would also retain at least the last fragment.
  if (mutated.empty()) mutated.push_back(selected->front());
  *selected = std::move(mutated);
  if (mutations > 0) {
    static Counter* c = Telemetry().GetCounter("fault/prompt_mutations");
    c->Add(mutations);
  }
  return mutations;
}

int FaultInjector::PickCacheEntryToPoison(int num_entries) {
  if (spec_.cache_poison_prob <= 0.0 || num_entries <= 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.Bernoulli(spec_.cache_poison_prob)) return -1;
  static Counter* c = Telemetry().GetCounter("fault/cache_poisonings");
  c->Add(1);
  return static_cast<int>(rng_.UniformInt(static_cast<uint64_t>(num_entries)));
}

Status FaultInjector::CorruptFileBytes(const std::string& path) {
  if (spec_.file_mode == FileFaultMode::kNone) return Status::Ok();
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return NotFoundError("fault: cannot open " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  if (contents.empty()) {
    return FailedPreconditionError("fault: empty file " + path);
  }
  switch (spec_.file_mode) {
    case FileFaultMode::kTruncate:
      contents.resize(contents.size() / 2);
      break;
    case FileFaultMode::kBitFlip: {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t byte = static_cast<size_t>(
          rng_.UniformInt(static_cast<uint64_t>(contents.size())));
      contents[byte] = static_cast<char>(
          contents[byte] ^ (1 << rng_.UniformInt(8)));
      break;
    }
    case FileFaultMode::kMagic:
      for (size_t i = 0; i < contents.size() && i < 4; ++i) {
        contents[i] = '\0';
      }
      break;
    case FileFaultMode::kNone:
      break;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return InternalError("fault: cannot rewrite " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out.good()) return InternalError("fault: rewrite failed " + path);
  static Counter* c = Telemetry().GetCounter("fault/file_corruptions");
  c->Add(1);
  return Status::Ok();
}

bool FaultInjector::MaybeSlowBatch() {
  if (spec_.slow_every <= 0) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (++batch_counter_ % spec_.slow_every != 0) return false;
  }
  static Counter* c = Telemetry().GetCounter("fault/slow_batches");
  c->Add(1);
  // Sleep outside the lock so a slow batch never stalls injection sites on
  // other threads.
  std::this_thread::sleep_for(std::chrono::milliseconds(spec_.slow_ms));
  return true;
}

bool FaultInjector::MaybeFailRequest() {
  if (spec_.serve_fail_prob <= 0.0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.Bernoulli(spec_.serve_fail_prob)) return false;
  static Counter* c = Telemetry().GetCounter("fault/transient_failures");
  c->Add(1);
  return true;
}

int64_t FaultInjector::TornFrameBytes(size_t frame_bytes) {
  if (spec_.serve_torn_prob <= 0.0 || frame_bytes == 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.Bernoulli(spec_.serve_torn_prob)) return -1;
  static Counter* c = Telemetry().GetCounter("fault/torn_frames");
  c->Add(1);
  return static_cast<int64_t>(
      rng_.UniformInt(static_cast<uint64_t>(frame_bytes)));
}

int FaultInjector::MaybeStallMs() {
  if (spec_.serve_stall_prob <= 0.0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.Bernoulli(spec_.serve_stall_prob)) return 0;
  static Counter* c = Telemetry().GetCounter("fault/client_stalls");
  c->Add(1);
  return spec_.serve_stall_ms;
}

FaultInjector* GlobalFaultInjector() { return g_injector; }

FaultInjector* ActiveFaultInjector() {
  return t_override.installed ? t_override.injector : g_injector;
}

ScopedThreadFaultInjector::ScopedThreadFaultInjector(FaultInjector* injector)
    : previous_(t_override.injector) {
  // previous_ doubles as the restore value only when an override was
  // already installed; otherwise destruction uninstalls entirely.
  if (!t_override.installed) previous_ = nullptr;
  const bool was_installed = t_override.installed;
  t_override.installed = true;
  t_override.injector = injector;
  installed_before_ = was_installed;
}

ScopedThreadFaultInjector::~ScopedThreadFaultInjector() {
  t_override.installed = installed_before_;
  t_override.injector = previous_;
}

Status ConfigureGlobalFaultInjection(const std::string& spec) {
  std::string effective = spec;
  if (effective.empty()) {
    const char* env = std::getenv("GP_FAULT");
    if (env != nullptr) effective = env;
  }
  if (effective.empty()) {
    GlobalInjectorSlot().reset();
    g_injector = nullptr;
    return Status::Ok();
  }
  GP_ASSIGN_OR_RETURN(FaultSpec parsed, ParseFaultSpec(effective));
  if (!parsed.Any()) {
    GlobalInjectorSlot().reset();
    g_injector = nullptr;
    return Status::Ok();
  }
  GlobalInjectorSlot() = std::make_unique<FaultInjector>(parsed);
  g_injector = GlobalInjectorSlot().get();
  LOG(WARNING) << "fault injection active: " << effective;
  return Status::Ok();
}

ScopedFaultInjection::ScopedFaultInjection(const FaultSpec& spec)
    : previous_(g_injector) {
  // The scoped injector intentionally bypasses the global slot's ownership:
  // the previous unique_ptr (if any) stays alive in the slot, and we swap
  // the raw pointer only.
  g_injector = new FaultInjector(spec);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  delete g_injector;
  g_injector = previous_;
}

}  // namespace gp
