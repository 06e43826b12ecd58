// Deterministic fault injection for robustness testing.
//
// A FaultInjector simulates the failure modes a production serving system
// must survive: non-finite embeddings coming out of a numerically damaged
// encoder, prompts dropped or duplicated by a lossy upstream stage,
// poisoned pseudo-prompt cache entries, corrupted checkpoint/graph files,
// and pathologically slow batches. All decisions are driven by a seeded
// Rng, so a given spec reproduces the exact same fault pattern every run.
//
// Specs are parsed from a comma-separated key=value grammar shared by the
// `--fault=` flag and the GP_FAULT environment variable:
//
//   embed_nan=P     corrupt each embedded row with NaN/Inf with prob P
//   prompt_drop=P   drop each selected prompt with prob P (keeps >= 1)
//   prompt_dup=P    duplicate each selected prompt with prob P
//   cache_poison=P  poison a cached pseudo-prompt with prob P per batch
//   file=MODE       corrupt files passed to CorruptFileBytes:
//                   truncate | bitflip | magic
//   slow_every=N    every Nth query batch sleeps...
//   slow_ms=M       ...for M milliseconds (default 5)
//   serve_fail=P    transient per-request serving failure with prob P
//                   (the daemon's retry path; see src/serve)
//   serve_torn=P    tear each outgoing protocol frame with prob P
//                   (chaos clients send a truncated frame and reconnect)
//   serve_stall=P   stall mid-frame with prob P...
//   serve_stall_ms=M  ...for M milliseconds (default 20)
//   seed=S          injector RNG seed (default 1337)
//
// Example: --fault=embed_nan=0.2,prompt_drop=0.3,seed=7
//
// Injection sites call through ActiveFaultInjector(): a thread-local
// override when one is installed (the serving daemon scopes a per-tenant
// injector around each request), otherwise the process-global injector,
// which is null (zero overhead beyond a pointer test) unless explicitly
// configured.

#ifndef GRAPHPROMPTER_UTIL_FAULT_H_
#define GRAPHPROMPTER_UTIL_FAULT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace gp {

enum class FileFaultMode { kNone, kTruncate, kBitFlip, kMagic };

const char* FileFaultModeName(FileFaultMode mode);

struct FaultSpec {
  double embed_nan_prob = 0.0;
  double prompt_drop_prob = 0.0;
  double prompt_dup_prob = 0.0;
  double cache_poison_prob = 0.0;
  FileFaultMode file_mode = FileFaultMode::kNone;
  int slow_every = 0;  // 0 disables slow-batch injection
  int slow_ms = 5;
  // Serving-scoped faults (src/serve): transient request failures, torn
  // protocol frames, and mid-frame client stalls.
  double serve_fail_prob = 0.0;
  double serve_torn_prob = 0.0;
  double serve_stall_prob = 0.0;
  int serve_stall_ms = 20;
  uint64_t seed = 1337;

  // True if any fault class is active.
  bool Any() const;
};

// Parses the grammar above. Empty spec parses to an all-disabled FaultSpec.
// Unknown keys and out-of-range probabilities are kInvalidArgument.
StatusOr<FaultSpec> ParseFaultSpec(const std::string& spec);

// Thread-safe: the internal RNG and counters are mutex-guarded, so
// injection sites on different threads (every thread that evaluates while
// a process-global injector is installed) draw from one serialized fault
// stream. The stream's *order* across threads is scheduling-dependent;
// clean runs (no injector) are unaffected.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  const FaultSpec& spec() const { return spec_; }

  // Overwrites a deterministic subset of rows of a row-major (rows x cols)
  // buffer with NaN/Inf values. Returns the number of rows corrupted.
  int CorruptRows(std::vector<float>* data, int rows, int cols);

  // Drops each element of `selected` with prompt_drop_prob (always keeping
  // at least one) and duplicates each survivor with prompt_dup_prob.
  // Returns the number of mutations applied.
  int MutatePromptSet(std::vector<int>* selected);

  // With cache_poison_prob, picks one of `num_entries` cache slots to
  // poison; returns its index, or -1 for no fault this round.
  int PickCacheEntryToPoison(int num_entries);

  // Corrupts the file at `path` per the spec's file mode: truncates it to
  // half, flips one bit mid-file, or stomps the leading magic bytes.
  Status CorruptFileBytes(const std::string& path);

  // Sleeps for slow_ms on every slow_every-th call; returns true when the
  // slow batch fired.
  bool MaybeSlowBatch();

  // With serve_fail_prob, reports a transient serving failure the daemon
  // should retry with backoff.
  bool MaybeFailRequest();

  // With serve_torn_prob, returns how many leading bytes of a
  // `frame_bytes`-long outgoing frame a chaos client should send before
  // abandoning it (in [0, frame_bytes)); -1 means send the frame intact.
  int64_t TornFrameBytes(size_t frame_bytes);

  // With serve_stall_prob, returns the number of milliseconds a chaos
  // client should stall mid-frame; 0 means no stall this time. The caller
  // sleeps, so the injector's decisions stay deterministic.
  int MaybeStallMs();

 private:
  FaultSpec spec_;
  std::mutex mu_;  // guards rng_ and batch_counter_
  Rng rng_;
  int64_t batch_counter_ = 0;
};

// Process-global injector: null until configured. Injection sites treat
// null as "fault injection disabled".
FaultInjector* GlobalFaultInjector();

// The injector injection sites should consult: the calling thread's
// scoped override when one is installed, otherwise the global injector.
// The serving daemon uses the override to give each tenant its own
// deterministic fault stream without cross-tenant interference.
FaultInjector* ActiveFaultInjector();

// RAII thread-local override (non-owning): installs `injector` as the
// calling thread's active injector, restores the previous override on
// destruction. Pass null to suppress the global injector on this thread.
class ScopedThreadFaultInjector {
 public:
  explicit ScopedThreadFaultInjector(FaultInjector* injector);
  ~ScopedThreadFaultInjector();

  ScopedThreadFaultInjector(const ScopedThreadFaultInjector&) = delete;
  ScopedThreadFaultInjector& operator=(const ScopedThreadFaultInjector&) =
      delete;

 private:
  FaultInjector* previous_;
  bool installed_before_ = false;
};

// Parses `spec` and installs it globally (empty spec uninstalls). When
// `spec` is empty, the GP_FAULT environment variable is consulted first.
Status ConfigureGlobalFaultInjection(const std::string& spec);

// RAII scope for tests: installs an injector on construction, restores the
// previous one on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultSpec& spec);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_UTIL_FAULT_H_
