// Per-tenant serving state: warm augmenter cache, accumulated degradation
// counters, a deterministic per-tenant fault injector, and a circuit
// breaker that walks the degradation ladder independently of every other
// tenant.
//
// Isolation invariants (asserted by the chaos soak):
//   - Each tenant owns its PromptAugmenter and its LFU cache; no cache
//     entry ever crosses tenants.
//   - Fault injection installed from a request's fault_spec is scoped to
//     that tenant's requests via ScopedThreadFaultInjector; a clean
//     tenant's requests never observe it.
//   - Degradation counters accumulate per tenant; a faulty tenant cannot
//     increment a clean tenant's counters.

#ifndef GRAPHPROMPTER_SERVE_TENANT_H_
#define GRAPHPROMPTER_SERVE_TENANT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/degradation.h"
#include "core/prompt_augmenter.h"
#include "util/fault.h"
#include "util/status.h"

namespace gp {

// Circuit breaker over a tenant's recent request outcomes. Closed passes
// traffic through the full pipeline; after `trip_threshold` consecutive
// degraded requests it opens and the tenant is served in safe mode (the
// augmenter stage disabled, its cache reset). After `cooldown_requests`
// safe-mode requests it half-opens: one probe request runs the full
// pipeline, and its outcome closes the breaker or re-opens it.
struct BreakerConfig {
  int trip_threshold = 3;
  int cooldown_requests = 8;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

class TenantState {
 public:
  TenantState(std::string name, const PromptAugmenterConfig& augmenter_config,
              const BreakerConfig& breaker_config, uint64_t seed);

  const std::string& name() const { return name_; }

  // The tenant mutex serializes same-tenant requests (the augmenter cache
  // is not internally synchronized); different tenants proceed in
  // parallel. Callers hold it across BeginRequest .. FinishRequest.
  std::mutex& mu() { return mu_; }

  // Installs/updates the tenant's fault injector from a request's spec.
  // An empty spec clears it. kInvalidArgument on a malformed spec.
  Status ConfigureFaults(const std::string& fault_spec);

  // The tenant's injector (null when the tenant is clean). Install with
  // ScopedThreadFaultInjector around the evaluation call.
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  // True when this request must run in safe mode (breaker open); counts
  // the request, and a safe-mode one.
  bool BeginRequestSafeMode();

  // Feeds the request outcome (degradation events charged to the tenant
  // plus whether the request exhausted retries) into the breaker. While
  // the breaker is open each request counts down the cooldown instead,
  // and the last one half-opens it, so the next request is the probe.
  void FinishRequest(int64_t degradation_events, bool exhausted_retries);

  // Accumulated counters, under mu().
  void MergeDegradation(const DegradationStats& stats) {
    degradation_.Merge(stats);
  }
  const DegradationStats& degradation() const { return degradation_; }
  int64_t requests() const { return requests_; }
  int64_t safe_mode_requests() const { return safe_mode_requests_; }
  int64_t breaker_trips() const { return breaker_trips_; }
  BreakerState breaker_state() const { return breaker_state_; }

  PromptAugmenter* augmenter() { return augmenter_.get(); }

 private:
  void TripBreaker();

  std::mutex mu_;
  const std::string name_;
  const BreakerConfig breaker_config_;
  std::unique_ptr<PromptAugmenter> augmenter_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::string fault_spec_;

  BreakerState breaker_state_ = BreakerState::kClosed;
  int consecutive_degraded_ = 0;
  int cooldown_remaining_ = 0;

  DegradationStats degradation_;
  int64_t requests_ = 0;
  int64_t safe_mode_requests_ = 0;
  int64_t breaker_trips_ = 0;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_SERVE_TENANT_H_
