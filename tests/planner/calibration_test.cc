// Measured-profile feedback: the obs -> CollectMeasuredProfile -> RecalibrateProfile /
// MeasuredWorkerSpecs -> planner chain (paper §3.1's profiler loop closed over a live run).
// The end-to-end test seeds the metrics registry the way the runtime's stage loops do and
// asserts the partitioner actually moves its cut in response — measurements, not
// configuration, drive the re-plan.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/planner/calibration.h"
#include "src/planner/partitioner.h"
#include "src/planner/predictor.h"
#include "src/profile/layer_profile.h"
#include "src/profile/profiler.h"

namespace pipedream {
namespace {

ModelProfile UniformProfile(int layers, double fwd, double bwd) {
  ModelProfile profile;
  profile.model_name = "uniform";
  profile.device_name = "test";
  profile.minibatch_size = 8;
  profile.layers.resize(static_cast<size_t>(layers));
  for (int i = 0; i < layers; ++i) {
    LayerProfile& l = profile.layers[static_cast<size_t>(i)];
    l.name = "layer" + std::to_string(i);
    l.fwd_seconds = fwd;
    l.bwd_seconds = bwd;
    l.activation_bytes = 64;  // tiny: keeps comm out of partitioner/predictor decisions
    l.param_bytes = 256;
  }
  return profile;
}

void ObserveStage(int stage, std::initializer_list<double> fwd,
                  std::initializer_list<double> bwd) {
  obs::Histogram* fh = obs::GetHistogram(StrFormat("runtime/stage%d/fwd_seconds", stage));
  obs::Histogram* bh = obs::GetHistogram(StrFormat("runtime/stage%d/bwd_seconds", stage));
  for (double v : fwd) fh->Observe(v);
  for (double v : bwd) bh->Observe(v);
}

TEST(CalibrationTest, StageLayerRanges) {
  const PipelinePlan plan = MakeStraightPlan(8, {3});
  const std::vector<std::pair<int, int>> ranges = StageLayerRanges(plan);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0], std::make_pair(0, 3));
  EXPECT_EQ(ranges[1], std::make_pair(3, 8));
}

TEST(CalibrationTest, CollectMeasuredProfileReadsHistograms) {
  obs::MetricsRegistry::Get().Reset();
  const PipelinePlan plan = MakeStraightPlan(6, {2});
  ObserveStage(0, {0.010, 0.014}, {0.020, 0.024});
  ObserveStage(1, {0.030}, {});  // drain tail: forward observed, backward not yet

  const MeasuredProfile measured = CollectMeasuredProfileForPlan(plan);
  ASSERT_EQ(measured.stages.size(), 2u);
  EXPECT_FALSE(measured.empty());
  EXPECT_EQ(measured.source, "runtime");

  const MeasuredStageOps& s0 = measured.stages[0];
  EXPECT_EQ(s0.begin_layer, 0);
  EXPECT_EQ(s0.end_layer, 2);
  EXPECT_NEAR(s0.fwd_seconds, 0.012, 1e-12);
  EXPECT_NEAR(s0.bwd_seconds, 0.022, 1e-12);
  EXPECT_EQ(s0.samples, 2);

  // One-sided observations still count (samples falls back to the larger side).
  const MeasuredStageOps& s1 = measured.stages[1];
  EXPECT_NEAR(s1.fwd_seconds, 0.030, 1e-12);
  EXPECT_EQ(s1.bwd_seconds, 0.0);
  EXPECT_EQ(s1.samples, 1);

  // A registry with nothing recorded yields an empty measured profile.
  obs::MetricsRegistry::Get().Reset();
  EXPECT_TRUE(CollectMeasuredProfileForPlan(plan).empty());
}

TEST(CalibrationTest, RecalibratePreservesIntraStageRatios) {
  ModelProfile est = UniformProfile(4, 0.010, 0.020);
  est.layers[1].fwd_seconds = 0.030;  // stage 0 = layers [0, 2): fwd 0.010 + 0.030

  MeasuredProfile measured;
  measured.stages.push_back({/*stage=*/0, /*begin=*/0, /*end=*/2,
                             /*fwd=*/0.080, /*bwd=*/0.120, /*samples=*/10});
  const ModelProfile recal = RecalibrateProfile(est, measured);

  // Stage sums match the measurement; the 1:3 fwd split inside the stage is preserved.
  EXPECT_NEAR(recal.layers[0].fwd_seconds + recal.layers[1].fwd_seconds, 0.080, 1e-12);
  EXPECT_NEAR(recal.layers[1].fwd_seconds / recal.layers[0].fwd_seconds, 3.0, 1e-9);
  EXPECT_NEAR(recal.layers[0].bwd_seconds + recal.layers[1].bwd_seconds, 0.120, 1e-12);

  // Layers outside every measured range keep their estimates; sizes pass through.
  EXPECT_EQ(recal.layers[2].fwd_seconds, 0.010);
  EXPECT_EQ(recal.layers[3].bwd_seconds, 0.020);
  EXPECT_EQ(recal.layers[0].activation_bytes, est.layers[0].activation_bytes);
  EXPECT_EQ(recal.layers[0].param_bytes, est.layers[0].param_bytes);
}

TEST(CalibrationTest, RecalibrateZeroEstimateSpreadsUniformly) {
  ModelProfile est = UniformProfile(4, 0.0, 0.0);  // no estimate at all for stage 0
  MeasuredProfile measured;
  measured.stages.push_back({0, 0, 2, 0.040, 0.060, 5});
  const ModelProfile recal = RecalibrateProfile(est, measured);
  EXPECT_NEAR(recal.layers[0].fwd_seconds, 0.020, 1e-12);
  EXPECT_NEAR(recal.layers[1].fwd_seconds, 0.020, 1e-12);
  EXPECT_NEAR(recal.layers[0].bwd_seconds, 0.030, 1e-12);
}

TEST(CalibrationTest, RecalibrateSkipsUnsampledStages) {
  const ModelProfile est = UniformProfile(4, 0.010, 0.020);
  MeasuredProfile measured;
  measured.stages.push_back({0, 0, 2, 0.999, 0.999, /*samples=*/0});
  const ModelProfile recal = RecalibrateProfile(est, measured);
  EXPECT_EQ(recal.layers[0].fwd_seconds, 0.010);
  EXPECT_EQ(recal.layers[1].bwd_seconds, 0.020);
  EXPECT_TRUE(measured.empty());
}

TEST(CalibrationTest, MeasuredWorkerSpecsSkewedSpeeds) {
  const ModelProfile est = UniformProfile(8, 0.010, 0.020);  // 0.12 per 4-layer stage
  const PipelinePlan plan = MakeStraightPlan(8, {4});

  MeasuredProfile measured;
  measured.stages.push_back({0, 0, 4, 0.040, 0.080, 20});  // measured == estimated
  measured.stages.push_back({1, 4, 8, 0.120, 0.240, 20});  // 3x slower than estimated
  const std::vector<WorkerSpec> specs = MeasuredWorkerSpecs(est, plan, measured);

  ASSERT_EQ(specs.size(), 2u);
  EXPECT_NEAR(specs[0].speed, 1.0, 1e-9);
  EXPECT_NEAR(specs[1].speed, 1.0 / 3.0, 1e-9);
}

TEST(CalibrationTest, MeasuredWorkerSpecsDefaultsWithoutSamples) {
  const ModelProfile est = UniformProfile(8, 0.010, 0.020);
  const PipelinePlan plan = MakeStraightPlan(8, {4});
  MeasuredProfile measured;
  measured.stages.push_back({0, 0, 4, 0.9, 0.9, /*samples=*/0});
  const std::vector<WorkerSpec> specs = MeasuredWorkerSpecs(est, plan, measured);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].speed, 1.0);
  EXPECT_EQ(specs[1].speed, 1.0);
}

// The acceptance path: synthetic runtime histograms -> measured profile -> worker speeds
// -> PartitionHeterogeneous moves layers off the measured-slow worker. Nothing in the
// planner inputs is hand-configured; the skew enters only through the obs registry.
TEST(CalibrationTest, MeasuredSpeedsShiftThePartition) {
  const ModelProfile est = UniformProfile(8, 0.010, 0.020);
  const PipelinePlan initial = MakeStraightPlan(8, {4});

  PartitionerOptions options;
  options.allow_replication = false;
  const double bandwidth = 1e12;  // tiny tensors + fat links: compute-only decision

  // Uniform (configured) speeds keep the balanced 4/4 cut.
  const PartitionResult uniform = PartitionHeterogeneous(
      est, {WorkerSpec{1.0}, WorkerSpec{1.0}}, bandwidth, options);
  ASSERT_EQ(uniform.plan.num_stages(), 2);
  EXPECT_EQ(uniform.plan.stage(0).end_layer, 4);

  // The live run observes stage 1's worker running 3x slower than the profile predicted.
  obs::MetricsRegistry::Get().Reset();
  ObserveStage(0, {0.040, 0.040}, {0.080, 0.080});
  ObserveStage(1, {0.120, 0.120}, {0.240, 0.240});
  const MeasuredProfile measured = CollectMeasuredProfileForPlan(initial);
  const std::vector<WorkerSpec> specs = MeasuredWorkerSpecs(est, initial, measured);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_LT(specs[1].speed, 0.5);

  const PartitionResult replan = PartitionHeterogeneous(est, specs, bandwidth, options);
  ASSERT_EQ(replan.plan.num_stages(), 2);

  // The slow worker's stage must shrink: with speeds {1, 1/3} the optimum is 6/2
  // (max(6t, 2t*3) = 6t beats the balanced max(4t, 4t*3) = 12t).
  int slow_stage = -1;
  int fast_stage = -1;
  for (int s = 0; s < 2; ++s) {
    for (int w : replan.plan.stage(s).workers) {
      (w == 1 ? slow_stage : fast_stage) = s;
    }
  }
  ASSERT_GE(slow_stage, 0);
  ASSERT_GE(fast_stage, 0);
  const auto stage_layers = [&](int s) {
    return replan.plan.stage(s).end_layer - replan.plan.stage(s).begin_layer;
  };
  EXPECT_EQ(stage_layers(slow_stage), 2);
  EXPECT_EQ(stage_layers(fast_stage), 6);
  EXPECT_LT(replan.bottleneck_seconds, 12 * 0.030 - 1e-9);
  obs::MetricsRegistry::Get().Reset();
}

// PredictPlan on the recalibrated profile ranks a skew-aware cut above the balanced one —
// the estimate-only profile would have called them equal.
TEST(CalibrationTest, PredictPlanRanksPlansByMeasuredProfile) {
  const ModelProfile est = UniformProfile(8, 0.010, 0.020);
  const PipelinePlan balanced = MakeStraightPlan(8, {4});
  const PipelinePlan skew_aware = MakeStraightPlan(8, {6});

  MeasuredProfile measured;
  measured.stages.push_back({0, 0, 4, 0.040, 0.080, 20});  // as estimated
  measured.stages.push_back({1, 4, 8, 0.120, 0.240, 20});  // layers 4-8 are 3x slower
  const ModelProfile recal = RecalibrateProfile(est, measured);
  EXPECT_NEAR(recal.ComputeSeconds(4, 8), 0.360, 1e-9);

  const auto topo = HardwareTopology::Flat(2, 1e12);
  const PlanPrediction est_balanced = PredictPlan(est, balanced, topo);
  const PlanPrediction est_skewed = PredictPlan(est, skew_aware, topo);
  const PlanPrediction recal_balanced = PredictPlan(recal, balanced, topo);
  const PlanPrediction recal_skewed = PredictPlan(recal, skew_aware, topo);

  // On estimates the balanced cut wins; on measurements the ranking flips.
  EXPECT_GT(est_balanced.throughput_samples_per_sec, est_skewed.throughput_samples_per_sec);
  EXPECT_GT(recal_skewed.throughput_samples_per_sec,
            recal_balanced.throughput_samples_per_sec);

  // And the measured ranking matches the arithmetic: bottlenecks 0.30 vs 0.36.
  EXPECT_NEAR(recal_balanced.bottleneck_seconds, 0.360, 1e-6);
  EXPECT_NEAR(recal_skewed.bottleneck_seconds, 0.300, 1e-6);
}

}  // namespace
}  // namespace pipedream
