// Statistics and accounting shared by the benchmark driver (driver.cc) and
// pinned by stats_test.cc: quantiles, the open-loop arrival schedule, the
// per-request fate ledger behind `attempted`/`failed`, span self time, and
// rates over the windows between two counter samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

// Linear interpolation between closest ranks (numpy's default): q = 0 is
// the minimum, q = 1 the maximum. An empty sample has no quantile; callers
// report the sample count beside every quantile, so NaN is never hidden.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Mean of the middle half of the sorted sample (the values ranked from
// n/4 to n - n/4): as robust to a few stalled or lucky samples as the
// median, yet it still resolves changes smaller than the step between
// samples that arrive in whole batches.
inline double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  return Mean(std::vector<double>(values.begin() + cut, values.end() - cut));
}

// Open-loop arrival times: a Poisson process of `rate_per_s` over
// [0, duration_us), as microsecond offsets from the phase start. The same
// seed gives the same schedule; the sender fires each request at its due
// time whether or not earlier replies have come back.
inline std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                            int64_t duration_us) {
  std::vector<int64_t> due;
  if (!(rate_per_s > 0.0) || duration_us <= 0) return due;
  gp::Rng rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) * mean_gap_us;
    if (t >= static_cast<double>(duration_us)) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

// A monotonically increasing counter read at one instant.
struct CounterSample {
  int64_t t_us = 0;
  int64_t value = 0;
};

// One rate per window between consecutive counter samples: the events
// whose time falls in [a.t_us, b.t_us), per second of counter growth,
// where the counter counts microseconds (b.value - a.value). Windows in
// which the counter did not grow have no rate and are left out.
inline std::vector<double> EventsPerCounterSecond(
    std::vector<int64_t> event_us, const std::vector<CounterSample>& samples) {
  std::sort(event_us.begin(), event_us.end());
  std::vector<double> rates;
  for (size_t i = 1; i < samples.size(); ++i) {
    const CounterSample& a = samples[i - 1];
    const CounterSample& b = samples[i];
    if (b.value <= a.value) continue;
    const auto n = std::lower_bound(event_us.begin(), event_us.end(), b.t_us) -
                   std::lower_bound(event_us.begin(), event_us.end(), a.t_us);
    rates.push_back(static_cast<double>(n) * 1e6 /
                    static_cast<double>(b.value - a.value));
  }
  return rates;
}

// What became of one operation. Every attempted operation ends in exactly
// one fate; only kVerified counts as a success.
enum class Fate : uint8_t {
  kUnsent,          // never attempted; left out of the tally
  kSent,            // attempted, no reply arrived: missing
  kTransportError,  // the send failed or the connection broke
  kReplyOk,         // OK reply not yet checked against the reference
  kReplyError,      // non-OK status (shed, deadline, invalid, ...)
  kVerified,        // OK reply equal to the reference, bit for bit
  kMismatch,        // OK reply that differs from the reference
};

struct Tally {
  int64_t attempted = 0;
  int64_t verified = 0;
  int64_t missing = 0;
  int64_t transport = 0;
  int64_t status = 0;
  int64_t mismatch = 0;
  int64_t unverified = 0;  // an OK reply the check never reached

  int64_t failed() const { return attempted - verified; }
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed()) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  std::map<std::string, int64_t> ByReason() const {
    return {{"missing", missing},       {"transport", transport},
            {"status", status},         {"mismatch", mismatch},
            {"unverified", unverified}};
  }
};

inline Tally TallyFates(const std::vector<Fate>& fates) {
  Tally t;
  for (Fate f : fates) {
    if (f == Fate::kUnsent) continue;
    ++t.attempted;
    switch (f) {
      case Fate::kSent: ++t.missing; break;
      case Fate::kTransportError: ++t.transport; break;
      case Fate::kReplyOk: ++t.unverified; break;
      case Fate::kReplyError: ++t.status; break;
      case Fate::kVerified: ++t.verified; break;
      case Fate::kMismatch: ++t.mismatch; break;
      case Fate::kUnsent: break;
    }
  }
  return t;
}

// One recorded span on one thread, in microseconds.
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

// The timeline of ONE thread over [lo_us, hi_us), cut into segments each
// owned by the innermost span covering it: every span's part inside the
// window minus the parts its children cover. Spans of one thread nest
// (they are scoped objects), so a stack sweep attributes every covered
// microsecond to exactly one span. Segments come back disjoint and in
// time order; time no span covers has no segment.
inline std::vector<Span> SelfSegments(std::vector<Span> spans, int64_t lo_us,
                                      int64_t hi_us) {
  for (Span& s : spans) {
    s.start_us = std::max(s.start_us, lo_us);
    s.end_us = std::min(s.end_us, hi_us);
  }
  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [](const Span& s) {
                               return s.end_us <= s.start_us;
                             }),
              spans.end());
  // Outer spans first: earlier start, and on a tie the longer one.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us
                                    : a.end_us > b.end_us;
  });
  std::vector<Span> segments;
  std::vector<const Span*> open;  // enclosing spans, innermost last
  int64_t cursor = lo_us;         // time attributed so far
  auto attribute = [&](const Span* owner, int64_t until) {
    if (until > cursor) segments.push_back({owner->name, cursor, until});
    cursor = std::max(cursor, until);
  };
  for (Span& s : spans) {
    while (!open.empty() && open.back()->end_us <= s.start_us) {
      attribute(open.back(), open.back()->end_us);
      open.pop_back();
    }
    if (open.empty()) {
      cursor = s.start_us;  // [cursor, start) is covered by no span
    } else {
      attribute(open.back(), s.start_us);
      // Keep the attribution a partition even if a span were to outlive
      // its parent.
      s.end_us = std::min(s.end_us, open.back()->end_us);
    }
    open.push_back(&s);
  }
  while (!open.empty()) {
    attribute(open.back(), open.back()->end_us);
    open.pop_back();
  }
  return segments;
}

// Self time per span name inside [lo_us, hi_us), summed over segments
// from SelfSegments (disjoint, in time order). The window's length minus
// the sum of the returned values is the time no span covers.
inline std::map<std::string, int64_t> SelfTimesWithin(
    const std::vector<Span>& segments, int64_t lo_us, int64_t hi_us) {
  std::map<std::string, int64_t> self;
  auto it = std::upper_bound(
      segments.begin(), segments.end(), lo_us,
      [](int64_t t, const Span& s) { return t < s.end_us; });
  for (; it != segments.end() && it->start_us < hi_us; ++it) {
    const int64_t us = std::min(it->end_us, hi_us) -
                       std::max(it->start_us, lo_us);
    if (us > 0) self[it->name] += us;
  }
  return self;
}

// Self time per span name of ONE thread over the window [lo_us, hi_us).
inline std::map<std::string, int64_t> SelfTimes(std::vector<Span> spans,
                                                int64_t lo_us, int64_t hi_us) {
  return SelfTimesWithin(SelfSegments(std::move(spans), lo_us, hi_us), lo_us,
                         hi_us);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
