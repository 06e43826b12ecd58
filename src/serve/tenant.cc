#include "serve/tenant.h"

#include "util/logging.h"

namespace gp {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

TenantState::TenantState(std::string name,
                         const PromptAugmenterConfig& augmenter_config,
                         const BreakerConfig& breaker_config, uint64_t seed)
    : name_(std::move(name)),
      breaker_config_(breaker_config),
      augmenter_(std::make_unique<PromptAugmenter>(augmenter_config, seed)) {}

Status TenantState::ConfigureFaults(const std::string& fault_spec) {
  if (fault_spec == fault_spec_) return Status::Ok();
  if (fault_spec.empty()) {
    fault_injector_.reset();
    fault_spec_.clear();
    return Status::Ok();
  }
  GP_ASSIGN_OR_RETURN(const FaultSpec spec, ParseFaultSpec(fault_spec));
  fault_injector_ = std::make_unique<FaultInjector>(spec);
  fault_spec_ = fault_spec;
  return Status::Ok();
}

bool TenantState::BeginRequestSafeMode() {
  ++requests_;
  // Closed traffic and the half-open probe run the full pipeline.
  if (breaker_state_ != BreakerState::kOpen) return false;
  ++safe_mode_requests_;
  return true;
}

void TenantState::TripBreaker() {
  breaker_state_ = BreakerState::kOpen;
  cooldown_remaining_ = breaker_config_.cooldown_requests;
  consecutive_degraded_ = 0;
  ++breaker_trips_;
  // A tripped tenant's cache is suspect (poisoned entries drove the trip);
  // reset it so the eventual half-open probe starts from a clean slate.
  augmenter_->Reset();
  LOG(WARNING) << "tenant " << name_
               << ": circuit breaker tripped, serving in safe mode for "
               << cooldown_remaining_ << " requests";
}

void TenantState::FinishRequest(int64_t degradation_events,
                                bool exhausted_retries) {
  const bool degraded = degradation_events > 0 || exhausted_retries;
  switch (breaker_state_) {
    case BreakerState::kClosed:
      if (degraded) {
        if (++consecutive_degraded_ >= breaker_config_.trip_threshold) {
          TripBreaker();
        }
      } else {
        consecutive_degraded_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // Safe-mode outcomes carry no signal about upstream health; each one
      // only counts down the cooldown.
      if (--cooldown_remaining_ <= 0) {
        breaker_state_ = BreakerState::kHalfOpen;
        LOG(INFO) << "tenant " << name_
                  << ": breaker cooled down, half-open (next request probes "
                     "the full pipeline)";
      }
      break;
    case BreakerState::kHalfOpen:
      if (degraded) {
        LOG(WARNING) << "tenant " << name_
                     << ": half-open probe still degraded, re-opening";
        TripBreaker();
      } else {
        breaker_state_ = BreakerState::kClosed;
        consecutive_degraded_ = 0;
        LOG(INFO) << "tenant " << name_
                  << ": half-open probe clean, breaker closed";
      }
      break;
  }
}

}  // namespace gp
