// Pins the benchmark driver's quantile, open-loop schedule, failure
// accounting, self-time attribution and windowed rates
// (perfbench/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {
namespace {

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile({7}, 0.99), 7.0);
}

TEST(QuantileTest, P99OfHundredValuesSitsBelowTheMaximum) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 50.5);
}

TEST(QuantileTest, EmptySampleHasNoQuantile) {
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
  EXPECT_TRUE(std::isnan(Mean({})));
}

TEST(InterquartileMeanTest, AveragesTheMiddleHalf) {
  // Sorted: 1 2 3 4 | 5 6 7 8 | ... the outer quarters (2 of 8) drop.
  EXPECT_DOUBLE_EQ(InterquartileMean({8, 1, 7, 2, 6, 3, 5, 4}), 4.5);
  // One stalled window does not move it.
  EXPECT_DOUBLE_EQ(InterquartileMean({64, 64, 64, 64, 64, 64, 64, 0}), 64.0);
  // Batch-quantized samples still resolve a change smaller than a step.
  EXPECT_DOUBLE_EQ(InterquartileMean({64, 64, 64, 128, 128, 128, 128, 192}),
                   112.0);
  EXPECT_DOUBLE_EQ(InterquartileMean({3}), 3.0);
  EXPECT_TRUE(std::isnan(InterquartileMean({})));
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(7, 300, 10'000'000),
            PoissonSchedule(7, 300, 10'000'000));
  EXPECT_NE(PoissonSchedule(7, 300, 10'000'000),
            PoissonSchedule(8, 300, 10'000'000));
}

TEST(PoissonScheduleTest, HoldsItsRateInsideTheWindow) {
  const int64_t duration_us = 100'000'000;  // 100 s at 300/s
  const std::vector<int64_t> due = PoissonSchedule(3, 300, duration_us);
  // 30000 expected arrivals; a Poisson count's sd is ~173.
  EXPECT_NEAR(static_cast<double>(due.size()), 30000.0, 1000.0);
  ASSERT_FALSE(due.empty());
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), duration_us);
  for (size_t i = 1; i < due.size(); ++i) EXPECT_LE(due[i - 1], due[i]);
  // Exponential gaps: the coefficient of variation is ~1, unlike a
  // fixed-interval schedule's 0.
  std::vector<double> gaps;
  for (size_t i = 1; i < due.size(); ++i) {
    gaps.push_back(static_cast<double>(due[i] - due[i - 1]));
  }
  const double mean = Mean(gaps);
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  const double cv = std::sqrt(var / static_cast<double>(gaps.size())) / mean;
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST(PoissonScheduleTest, DegenerateInputsGiveNoArrivals) {
  EXPECT_TRUE(PoissonSchedule(1, 0, 1'000'000).empty());
  EXPECT_TRUE(PoissonSchedule(1, 100, 0).empty());
}

TEST(TallyTest, EveryFateButVerifiedIsAFailure) {
  const std::vector<Fate> fates = {
      Fate::kVerified,  Fate::kVerified,   Fate::kMismatch,
      Fate::kSent,      Fate::kReplyError, Fate::kTransportError,
      Fate::kReplyOk,   Fate::kUnsent};
  const Tally t = TallyFates(fates);
  EXPECT_EQ(t.attempted, 7);  // kUnsent was never attempted
  EXPECT_EQ(t.verified, 2);
  EXPECT_EQ(t.failed(), 5);
  EXPECT_EQ(t.mismatch, 1);
  EXPECT_EQ(t.missing, 1);
  EXPECT_EQ(t.status, 1);
  EXPECT_EQ(t.transport, 1);
  EXPECT_EQ(t.unverified, 1);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 5.0 / 7.0);
  int64_t by_reason = 0;
  for (const auto& [reason, n] : t.ByReason()) by_reason += n;
  EXPECT_EQ(by_reason, t.failed());
}

TEST(TallyTest, CleanRunHasNoFailures) {
  const Tally t = TallyFates(std::vector<Fate>(100, Fate::kVerified));
  EXPECT_EQ(t.attempted, 100);
  EXPECT_EQ(t.failed(), 0);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.0);
  EXPECT_DOUBLE_EQ(TallyFates({}).fail_frac(), 0.0);
}

TEST(SelfTimesTest, ChildrenAreSubtractedFromTheirParent) {
  // outer [0,100) holds a [10,30) and b [40,90); b holds c [50,60).
  const std::vector<Span> spans = {{"outer", 0, 100},
                                   {"a", 10, 30},
                                   {"b", 40, 90},
                                   {"c", 50, 60}};
  const auto self = SelfTimes(spans, 0, 200);
  EXPECT_EQ(self.at("outer"), 100 - 20 - 50);
  EXPECT_EQ(self.at("a"), 20);
  EXPECT_EQ(self.at("b"), 50 - 10);
  EXPECT_EQ(self.at("c"), 10);
  int64_t covered = 0;
  for (const auto& [name, us] : self) covered += us;
  EXPECT_EQ(covered, 100);  // [100, 200) is covered by no span
}

TEST(SelfTimesTest, SameNamesAccumulateAndTheWindowClips) {
  const std::vector<Span> spans = {{"step", 0, 50},
                                   {"fwd", 10, 20},
                                   {"step", 50, 100},
                                   {"fwd", 60, 80}};
  const auto self = SelfTimes(spans, 30, 70);
  EXPECT_EQ(self.at("step"), (50 - 30) + (60 - 50));
  EXPECT_EQ(self.at("fwd"), 70 - 60);
}

TEST(SelfTimesTest, ZeroLengthAndTiedSpansKeepAPartition) {
  const std::vector<Span> spans = {
      {"inner", 0, 10}, {"outer", 0, 40}, {"empty", 20, 20}, {"late", 30, 40}};
  const auto self = SelfTimes(spans, 0, 40);
  EXPECT_EQ(self.at("outer"), 40 - 10 - 10);
  EXPECT_EQ(self.at("inner"), 10);
  EXPECT_EQ(self.at("late"), 10);
  EXPECT_EQ(self.count("empty"), 0u);
}

TEST(SelfSegmentsTest, PartitionTheCoveredTimeInTimeOrder) {
  const std::vector<Span> spans = {{"b", 40, 90},
                                   {"outer", 0, 100},
                                   {"c", 50, 60},
                                   {"a", 10, 30}};
  const std::vector<Span> segments = SelfSegments(spans, 0, 200);
  const std::vector<std::tuple<std::string, int64_t, int64_t>> want = {
      {"outer", 0, 10}, {"a", 10, 30},  {"outer", 30, 40}, {"b", 40, 50},
      {"c", 50, 60},    {"b", 60, 90},  {"outer", 90, 100}};
  ASSERT_EQ(segments.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(segments[i].name, std::get<0>(want[i])) << i;
    EXPECT_EQ(segments[i].start_us, std::get<1>(want[i])) << i;
    EXPECT_EQ(segments[i].end_us, std::get<2>(want[i])) << i;
  }
}

TEST(SelfSegmentsTest, SelfTimesWithinClipsToTheInterval) {
  const std::vector<Span> segments =
      SelfSegments({{"outer", 0, 100}, {"a", 10, 30}, {"b", 40, 90}}, 0, 200);
  // [25, 45): 5 us of a, 10 of outer, 5 of b.
  const auto self = SelfTimesWithin(segments, 25, 45);
  EXPECT_EQ(self.at("a"), 5);
  EXPECT_EQ(self.at("outer"), 10);
  EXPECT_EQ(self.at("b"), 5);
  // An interval no span covers has no self time at all.
  EXPECT_TRUE(SelfTimesWithin(segments, 120, 180).empty());
  // Disjoint intervals add up to the whole.
  const auto left = SelfTimesWithin(segments, 0, 50);
  const auto right = SelfTimesWithin(segments, 50, 200);
  EXPECT_EQ(left.at("outer") + right.at("outer"), 100 - 20 - 50);
  EXPECT_EQ(left.at("b") + right.at("b"), 50);
}

TEST(EventsPerCounterSecondTest, CountsEventsPerWindowOverCounterGrowth) {
  // Counter in microseconds: 250 ms of growth in the first window, 500 ms
  // in the second, none in the third (no rate), 100 ms in the fourth.
  const std::vector<CounterSample> samples = {{0, 0},
                                              {1000, 250000},
                                              {2000, 750000},
                                              {3000, 750000},
                                              {4000, 850000}};
  // Unsorted on purpose; 4000 lies past the last window's end.
  const std::vector<int64_t> events = {1500, 10,   999, 1000, 500,
                                       3500, 4000, 1999};
  const std::vector<double> rates = EventsPerCounterSecond(events, samples);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 3 / 0.25);  // 10, 500, 999
  EXPECT_DOUBLE_EQ(rates[1], 3 / 0.5);   // 1000, 1500, 1999
  EXPECT_DOUBLE_EQ(rates[2], 1 / 0.1);   // 3500
  EXPECT_TRUE(EventsPerCounterSecond(events, {{0, 0}}).empty());
}

}  // namespace
}  // namespace perfbench
