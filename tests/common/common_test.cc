#include <gtest/gtest.h>

#include <cstdlib>

#include "src/common/env.h"
#include "src/common/sim_time.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/tensor/ops.h"
#include "src/tensor/pool.h"

namespace pipedream {
namespace {

TEST(SimTimeTest, UnitConversions) {
  EXPECT_EQ(SimTime::Micros(3).nanos(), 3000);
  EXPECT_EQ(SimTime::Millis(2).nanos(), 2000000);
  EXPECT_EQ(SimTime::Seconds(1).nanos(), 1000000000);
  EXPECT_DOUBLE_EQ(SimTime::Seconds(2).ToSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(SimTime::Millis(5).ToMillis(), 5.0);
}

TEST(SimTimeTest, FromSecondsRounds) {
  EXPECT_EQ(SimTime::FromSeconds(1e-9).nanos(), 1);
  EXPECT_EQ(SimTime::FromSeconds(1.5e-9).nanos(), 2);
  EXPECT_EQ(SimTime::FromSeconds(0.0).nanos(), 0);
}

TEST(SimTimeTest, Arithmetic) {
  SimTime t = SimTime::Micros(10);
  t += SimTime::Micros(5);
  EXPECT_EQ(t.nanos(), 15000);
  EXPECT_EQ((t - SimTime::Micros(5)).nanos(), 10000);
  EXPECT_EQ((SimTime::Micros(2) * 3).nanos(), 6000);
  EXPECT_LT(SimTime::Micros(1), SimTime::Micros(2));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::Nanos(12).ToString(), "12ns");
  EXPECT_EQ(SimTime::Micros(12).ToString(), "12us");
  EXPECT_EQ(SimTime::Millis(12).ToString(), "12ms");
  EXPECT_EQ(SimTime::Seconds(12).ToString(), "12s");
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad layer index");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad layer index");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%d", 15, 1), "15-1");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitAndJoin) {
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin({"1", "2", "3"}, "-"), "1-2-3");
  EXPECT_EQ(StrJoin({}, "-"), "");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1.5e3), "1.50 KB");
  EXPECT_EQ(HumanBytes(2.5e6), "2.50 MB");
  EXPECT_EQ(HumanBytes(3.25e9), "3.25 GB");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("pipeline", "pipe"));
  EXPECT_FALSE(StartsWith("pipe", "pipeline"));
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stat.Add(x);
  }
  EXPECT_EQ(stat.count(), 8);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.variance(), 4.571428, 1e-5);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStatTest, EmptyStatReportsZeroNotSentinels) {
  // min()/max() are initialized with +/-1e300 sentinels internally; an empty stat must never
  // leak them (metric dumps and tables print min/max before any Add).
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0);
  EXPECT_DOUBLE_EQ(stat.min(), 0.0);
  EXPECT_DOUBLE_EQ(stat.max(), 0.0);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 0.0);
}

TEST(RunningStatTest, OneSample) {
  RunningStat stat;
  stat.Add(-3.5);
  EXPECT_EQ(stat.count(), 1);
  EXPECT_DOUBLE_EQ(stat.min(), -3.5);
  EXPECT_DOUBLE_EQ(stat.max(), -3.5);
  EXPECT_DOUBLE_EQ(stat.mean(), -3.5);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(stat.sum(), -3.5);
}

TEST(SampleSetTest, Quantiles) {
  SampleSet set;
  for (int i = 100; i >= 1; --i) {
    set.Add(i);
  }
  EXPECT_DOUBLE_EQ(set.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.Quantile(1.0), 100.0);
  EXPECT_NEAR(set.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(set.Mean(), 50.5, 1e-9);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  const std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, neg), -1.0, 1e-12);
}

TEST(TableTest, AlignedTextOutput) {
  Table table({"model", "speedup"});
  table.AddRow({"VGG-16", "5.28x"});
  table.AddRow({"ResNet-50", "1x"});
  const std::string text = table.ToText();
  EXPECT_NE(text.find("VGG-16"), std::string::npos);
  EXPECT_NE(text.find("5.28x"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvEscaping) {
  Table table({"a", "b"});
  table.AddRow({"x,y", "quote\"inside"});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(EnvSwitchTest, UnsetEmptyAndZeroAreOffOneIsOn) {
  EXPECT_FALSE(ParseEnvSwitch("PIPEDREAM_NO_POOL", nullptr));
  EXPECT_FALSE(ParseEnvSwitch("PIPEDREAM_NO_POOL", ""));
  EXPECT_FALSE(ParseEnvSwitch("PIPEDREAM_NO_POOL", "0"));
  EXPECT_TRUE(ParseEnvSwitch("PIPEDREAM_NO_POOL", "1"));
}

TEST(EnvSwitchDeathTest, AnyOtherValueAbortsNamingTheVariable) {
  EXPECT_DEATH(ParseEnvSwitch("PIPEDREAM_NO_POOL", "false"), "PIPEDREAM_NO_POOL=false");
  EXPECT_DEATH(ParseEnvSwitch("PIPEDREAM_METRICS_TABLE", "10"), "PIPEDREAM_METRICS_TABLE=10");
  EXPECT_DEATH(ParseEnvSwitch("PIPEDREAM_NAIVE_KERNELS", "true"),
               "PIPEDREAM_NAIVE_KERNELS=true");
  EXPECT_DEATH(ParseEnvSwitch("PIPEDREAM_NAIVE_KERNELS", " 1"), "is not a switch");
}

// The kernel and pool switches read the environment once per process, so each case runs
// in a freshly exec'd child that sets the variable before the first read.
TEST(EnvSwitchDeathTest, KernelAndPoolSwitchesRejectFalse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ::setenv("PIPEDREAM_NAIVE_KERNELS", "false", 1);
        UseNaiveKernels();
      },
      "PIPEDREAM_NAIVE_KERNELS=false");
  EXPECT_DEATH(
      {
        ::setenv("PIPEDREAM_NO_POOL", "false", 1);
        BufferPool::ZeroCopyEnabled();
      },
      "PIPEDREAM_NO_POOL=false");
}

}  // namespace
}  // namespace pipedream
