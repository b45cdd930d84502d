#include <gtest/gtest.h>

#include "src/planner/partitioner.h"
#include "src/planner/predictor.h"
#include "src/profile/model_zoo.h"

namespace pipedream {
namespace {

TEST(PredictorTest, SingleWorkerThroughputIsComputeBound) {
  const auto profile = MakeAlexNetProfile();
  const auto plan = MakeDataParallelPlan(profile.num_layers(), 1);
  const auto topo = HardwareTopology::Flat(1, 1e9);
  const auto prediction = PredictPlan(profile, plan, topo);
  EXPECT_NEAR(prediction.bottleneck_seconds, profile.TotalComputeSeconds(), 1e-9);
  EXPECT_NEAR(prediction.throughput_samples_per_sec,
              256.0 / profile.TotalComputeSeconds(), 1e-6);
  EXPECT_EQ(prediction.comm_bytes_per_sample, 0.0);
}

TEST(PredictorTest, DataParallelCommBytesMatchRingFormula) {
  const auto profile = MakeVgg16Profile();
  const int m = 4;
  const auto plan = MakeDataParallelPlan(profile.num_layers(), m);
  const auto topo = HardwareTopology::Flat(m, 1.25e9);
  const auto prediction = PredictPlan(profile, plan, topo);
  const double expected = 2.0 * (m - 1) * static_cast<double>(profile.TotalParamBytes()) /
                          (m * 64.0);
  EXPECT_NEAR(prediction.comm_bytes_per_sample, expected, expected * 1e-9);
}

TEST(PredictorTest, StraightPipelineCommIsActivationsOnly) {
  const auto profile = MakeGnmtProfile(8);
  const auto plan = MakeBalancedStraightPlan(profile, 4);
  const auto topo = HardwareTopology::Flat(4, 1.25e9);
  const auto prediction = PredictPlan(profile, plan, topo);
  double expected = 0.0;
  for (int s = 1; s < plan.num_stages(); ++s) {
    expected += 2.0 * static_cast<double>(
                          profile.BoundaryActivationBytes(plan.stage(s).begin_layer - 1));
  }
  expected /= 64.0;
  EXPECT_NEAR(prediction.comm_bytes_per_sample, expected, expected * 1e-9);
}

TEST(PredictorTest, BestNonDpCommLowerThanDpForVgg) {
  // Figure 17's key claim for VGG-16 (>85% communication reduction).
  const auto profile = MakeVgg16Profile();
  const auto topo = HardwareTopology::Flat(4, 1.25e9);
  const auto dp = PredictPlan(profile, MakeDataParallelPlan(profile.num_layers(), 4), topo);
  PartitionerOptions options;
  options.collective_efficiency = 0.3;  // slow enough that the optimizer avoids DP
  options.p2p_efficiency = 0.7;
  const auto pp_result = PartitionFlat(profile, 4, 1.25e9, options);
  const auto pp = PredictPlan(profile, pp_result.plan, topo);
  EXPECT_LT(pp.comm_bytes_per_sample, dp.comm_bytes_per_sample * 0.5);
}

TEST(PredictorTest, ResnetDpCommLowerThanPipeline) {
  // Figure 17's converse for ResNet-50: activations dwarf weights, so DP communicates less.
  const auto profile = MakeResnet50Profile();
  const auto topo = HardwareTopology::Flat(4, 1.25e9);
  const auto dp = PredictPlan(profile, MakeDataParallelPlan(profile.num_layers(), 4), topo);
  const auto straight = PredictPlan(profile, MakeBalancedStraightPlan(profile, 4), topo);
  EXPECT_LT(dp.comm_bytes_per_sample, straight.comm_bytes_per_sample);
}

TEST(PredictorTest, InFlightDepthsFollow1F1B) {
  const auto profile = MakeGnmtProfile(8);
  const auto plan = MakeBalancedStraightPlan(profile, 4);
  const auto topo = HardwareTopology::Flat(4, 1e9);
  const auto prediction = PredictPlan(profile, plan, topo);
  ASSERT_EQ(prediction.stages.size(), 4u);
  EXPECT_EQ(prediction.stages[0].in_flight, 4);
  EXPECT_EQ(prediction.stages[1].in_flight, 3);
  EXPECT_EQ(prediction.stages[2].in_flight, 2);
  EXPECT_EQ(prediction.stages[3].in_flight, 1);
}

TEST(PredictorTest, PipelineMemoryOnParWithDataParallel) {
  // Figure 16 / §3.3: worst-case per-worker footprint of the pipeline is on par with DP.
  const auto profile = MakeVgg16Profile();
  const auto topo = HardwareTopology::Flat(4, 1e9);
  const auto dp = PredictPlan(profile, MakeDataParallelPlan(profile.num_layers(), 4), topo);
  const auto straight = PredictPlan(profile, MakeBalancedStraightPlan(profile, 4), topo);
  EXPECT_LT(straight.max_worker_memory_bytes, dp.max_worker_memory_bytes * 2);
}

TEST(PredictorTest, ReplicatedStageSyncRaisesBottleneck) {
  const auto profile = MakeAwdLmProfile();  // heavy weights
  const int n = profile.num_layers();
  const auto topo = HardwareTopology::Flat(4, 1e8);  // very slow links
  const auto dp = PredictPlan(profile, MakeDataParallelPlan(n, 4), topo);
  // Sync-bound: bottleneck = ring wall / replicas = 2(m-1)|w|/(m B) / m.
  const double sync = 2.0 * 3.0 * static_cast<double>(profile.TotalParamBytes()) / (4.0 * 1e8);
  EXPECT_NEAR(dp.bottleneck_seconds, sync / 4.0, sync * 1e-9);
}

TEST(PredictorTest, PartitionerPredictionConsistentWithPredictor) {
  // The bottleneck the DP reports must equal the predictor's for the produced plan.
  for (const auto& name : {"VGG-16", "GNMT-8", "AlexNet"}) {
    const auto profile = MakeProfileByName(name);
    const auto topo = HardwareTopology::Flat(8, 1.25e9);
    const auto result = PartitionFlat(profile, 8, 1.25e9);
    const auto prediction = PredictPlan(profile, result.plan, topo);
    EXPECT_NEAR(prediction.bottleneck_seconds, result.bottleneck_seconds,
                result.bottleneck_seconds * 1e-6)
        << name;
  }
}

TEST(PredictorTest, EpochSecondsScalesWithDataset) {
  const auto profile = MakeAlexNetProfile();
  const auto plan = MakeDataParallelPlan(profile.num_layers(), 1);
  const auto topo = HardwareTopology::Flat(1, 1e9);
  const auto prediction = PredictPlan(profile, plan, topo);
  EXPECT_NEAR(prediction.EpochSeconds(2000), 2 * prediction.EpochSeconds(1000), 1e-9);
}

}  // namespace
}  // namespace pipedream
