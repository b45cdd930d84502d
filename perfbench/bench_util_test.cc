#include "perfbench/bench_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(SelectTail, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 above it.
  TailSelection t = SelectTail(Ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.samples, 1000);
  EXPECT_NEAR(t.value, Quantile(Ramp(1000), 0.99), 1e-12);
  // 999 samples: p99 leaves 9.99, so p95 (49.95 beyond) is the highest supported.
  EXPECT_EQ(SelectTail(Ramp(999)).percentile, 95.0);
  EXPECT_EQ(SelectTail(Ramp(100)).percentile, 90.0);
  EXPECT_EQ(SelectTail(Ramp(40)).percentile, 75.0);
  // Too few samples for any tail: the median, with the count reported.
  t = SelectTail(Ramp(7));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.samples, 7);
  EXPECT_EQ(t.value, 4.0);
}

TEST(WindowRates, CountsWholeWindowsOnly) {
  // 4 events in [0, 1), 2 in [1, 2), one in the partial window [2, 2.5) and one early.
  const std::vector<double> t = {-0.1, 0.1, 0.2, 0.3, 0.9, 1.2, 1.5, 2.2};
  EXPECT_EQ(WindowRates(t, 0.0, 2.5, 1.0), (std::vector<double>{4.0, 2.0}));
  EXPECT_EQ(WindowRates(t, 0.0, 2.5, 0.5), (std::vector<double>{6.0, 2.0, 2.0, 2.0, 2.0}));
  EXPECT_EQ(WindowRates({0.1}, 0.0, 0.5, 1.0), (std::vector<double>{2.0}));
}

TEST(MedianWindowTail, OneStalledWindowDoesNotMoveTheTail) {
  std::vector<double> times;
  std::vector<double> latency;
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 1000; ++i) {
      times.push_back(w + i / 1000.0);
      latency.push_back(w == 2 ? 50.0 : 1.0 + i / 1000.0);  // window 2 stalled throughout
    }
  }
  const TailSelection t = MedianWindowTail(times, latency, 1.0);
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.samples, 6000);
  EXPECT_NEAR(t.value, Quantile(std::vector<double>(latency.begin(), latency.begin() + 1000), 0.99),
              1e-12);
}

TEST(Quantile, InterpolatesAndHandlesEmpty) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(42, 2000.0, 1.0);
  const std::vector<double> b = PoissonSchedule(42, 2000.0, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(43, 2000.0, 1.0));
  // Offsets increase, stay inside the phase, and average the offered rate.
  ASSERT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LT(a[i - 1], a[i]);
  }
  EXPECT_LT(a.back(), 1.0);
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 5 * std::sqrt(2000.0));
  EXPECT_TRUE(PoissonSchedule(1, 0.0, 1.0).empty());
}

TEST(Ladder, StopsAtFirstStepOverLimitOrWithGrowingBacklog) {
  const double limit = 5.0;
  const double growth = 1.0;
  std::vector<LadderStep> steps = {
      {1000, 1.0, 0.05, 0.06},
      {2000, 2.0, 0.05, 0.40},
      {4000, 4.9, 0.05, 0.90},
      {8000, 3.0, 0.10, 9.00},   // tail fine, but the generator fell behind: backlog
      {16000, 1.0, 0.05, 0.05},  // never reached: the ladder stops at the first failure
  };
  EXPECT_TRUE(LadderStepPasses(steps[2], limit, growth));
  EXPECT_FALSE(LadderStepPasses(steps[3], limit, growth));
  EXPECT_EQ(MaxPassingRate(steps, limit, growth), 4000.0);
  steps[1].tail_ms = 5.1;  // over the latency limit
  EXPECT_EQ(MaxPassingRate(steps, limit, growth), 1000.0);
  steps[0].tail_ms = 6.0;
  EXPECT_EQ(MaxPassingRate(steps, limit, growth), 0.0);
}

TEST(StageBudget, FractionsSumToOne) {
  StageBudgetInput in;
  in.wall = 2.0;
  in.op_span = 1.2;
  in.compute = 0.9;
  in.starved = 0.3;
  in.backpressure = 0.2;
  in.weight_sync = 0.1;
  const StageBudget b = ComputeStageBudget(in);
  EXPECT_NEAR(b.Sum(), 1.0, 1e-12);
  EXPECT_NEAR(b.compute_frac, 0.45, 1e-12);
  EXPECT_NEAR(b.op_overhead_frac, 0.15, 1e-12);
  EXPECT_NEAR(b.unaccounted_frac, 0.1, 1e-12);
  // Over-attributed time shows as a negative residual rather than breaking the sum.
  in.starved = 1.0;
  EXPECT_NEAR(ComputeStageBudget(in).Sum(), 1.0, 1e-12);
  EXPECT_LT(ComputeStageBudget(in).unaccounted_frac, 0.0);
}

TEST(MetricNames, MatchTheAllowedAlphabet) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("simexec.1f1b.minibatches_per_s"));
  EXPECT_TRUE(ValidMetricName("runtime.transport.hop_us"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("stage 0"));
  EXPECT_FALSE(ValidMetricName("a/b"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  std::set<std::string> seen;
  for (const MetricSpec& spec : EndToEndMetrics()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
  }
  for (const MetricSpec& spec : PerLayerMetrics()) {
    EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
    EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
  }
  EXPECT_EQ(StageMetric("runtime", 3, "starved_frac"), "runtime.stage3.starved_frac");
  EXPECT_TRUE(seen.count(StageMetric("graph", kMaxStages - 1, "infer_ms")));
}

TEST(Result, PrintsTheFourKeysWithFullDigits) {
  Result r;
  r.attempted = 3;
  r.Set("op_p50_ms", 1.0 / 3.0, "ms");
  EXPECT_EQ(r.ToJson(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"op_p50_ms\": {\"value\": 0.33333333333333331, \"unit\": \"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
