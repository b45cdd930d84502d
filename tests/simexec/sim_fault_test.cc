// Device-failure events in the cluster simulator: a fault must cost makespan, the recovery
// timeline must decompose into detection + restart + re-execution, and degraded recovery
// must trade a replica for a permanent throughput dip instead of a restart.
#include <gtest/gtest.h>

#include "src/planner/plan.h"
#include "src/sim/topology.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {
namespace {

ModelProfile UniformProfile(int layers, double fwd_seconds = 0.010,
                            int64_t activation_bytes = 1 << 20,
                            int64_t param_bytes = 4 << 20) {
  ModelProfile profile;
  profile.model_name = "uniform";
  profile.minibatch_size = 32;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = fwd_seconds;
    layer.bwd_seconds = 2.0 * fwd_seconds;
    layer.activation_bytes = activation_bytes;
    layer.param_bytes = param_bytes;
    profile.layers.push_back(layer);
  }
  return profile;
}

TEST(SimFaultTest, FaultlessRunReportsNoFailure) {
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 100;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  EXPECT_LT(result.fault_seconds, 0.0);
  EXPECT_LT(result.recovery_seconds, 0.0);
  EXPECT_EQ(result.reexecuted_minibatches, 0);
}

TEST(SimFaultTest, RestartRecoveryCostsDetectionRestartAndReexecution) {
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 200;

  const auto clean = SimulatePipeline(profile, plan, topo, options);

  options.fault.enabled = true;
  options.fault.stage = 2;
  options.fault.replica = 0;
  options.fault.at_minibatch = 120;
  options.fault.detection_seconds = 0.5;
  options.fault.restart_seconds = 2.0;
  options.fault.checkpoint_every = 100;
  const auto faulty = SimulatePipeline(profile, plan, topo, options);

  // The failure fired and was accounted for.
  EXPECT_GE(faulty.fault_seconds, 0.0);
  EXPECT_GE(faulty.recovery_seconds, faulty.fault_seconds);
  // The pipeline resumes exactly detection + restart after the death.
  EXPECT_NEAR(faulty.recovery_seconds - faulty.fault_seconds,
              options.fault.detection_seconds + options.fault.restart_seconds, 1e-9);
  // Rollback is to the last checkpoint boundary: strictly fewer than checkpoint_every
  // minibatches re-execute, and at least the work past minibatch 100 is lost.
  EXPECT_GT(faulty.reexecuted_minibatches, 0);
  EXPECT_LT(faulty.reexecuted_minibatches, options.fault.checkpoint_every);
  // A failure can only lengthen the run; the overhead includes the dead time + re-execution.
  EXPECT_GT(faulty.total_seconds,
            clean.total_seconds + options.fault.detection_seconds +
                options.fault.restart_seconds);
  // After recovery the full pipeline is back: steady-state throughput recovers.
  EXPECT_GT(faulty.post_recovery_throughput_samples_per_sec,
            0.5 * clean.throughput_samples_per_sec);
}

TEST(SimFaultTest, EarlierCheckpointsMeanMoreReexecution) {
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 200;
  options.fault.enabled = true;
  options.fault.stage = 1;
  options.fault.at_minibatch = 150;

  options.fault.checkpoint_every = 100;
  const auto sparse = SimulatePipeline(profile, plan, topo, options);
  options.fault.checkpoint_every = 25;
  const auto dense = SimulatePipeline(profile, plan, topo, options);

  EXPECT_GT(sparse.reexecuted_minibatches, dense.reexecuted_minibatches);
  EXPECT_GE(sparse.total_seconds, dense.total_seconds);
}

TEST(SimFaultTest, DegradedRecoveryDipsThroughputWithoutRollingBack) {
  // 2-replica input stage; ejecting one replica leaves a 3-worker pipeline whose input
  // stage carries double load, so post-recovery throughput drops but no work re-executes
  // beyond the round in flight.
  const auto profile = UniformProfile(8);
  const auto plan = MakePlanFromShape({{4, 2}, {4, 2}});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 400;

  const auto clean = SimulatePipeline(profile, plan, topo, options);

  options.fault.enabled = true;
  options.fault.stage = 0;
  options.fault.replica = 1;
  options.fault.at_minibatch = 201;  // replica 1 owns odd minibatches
  options.fault.detection_seconds = 0.1;
  options.fault.restart_seconds = 0.5;
  options.fault.checkpoint_every = 100;
  options.fault.degraded = true;
  const auto degraded = SimulatePipeline(profile, plan, topo, options);

  EXPECT_GE(degraded.fault_seconds, 0.0);
  EXPECT_GE(degraded.recovery_seconds, degraded.fault_seconds);
  // Half the workers on the victim stage -> the survivor serializes both residue classes;
  // the tail of the run is visibly slower than the clean pipeline's steady state.
  EXPECT_LT(degraded.post_recovery_throughput_samples_per_sec,
            0.9 * clean.throughput_samples_per_sec);
  EXPECT_GT(degraded.post_recovery_throughput_samples_per_sec, 0.0);
  EXPECT_GT(degraded.total_seconds, clean.total_seconds);
}

TEST(SimFaultTest, GPipeFaultRollsBackToRoundAlignedCheckpoint) {
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  for (const ScheduleKind kind : {ScheduleKind::kGPipe, ScheduleKind::kPipeDreamFlush,
                                  ScheduleKind::kModelParallel}) {
    SimOptions options;
    options.schedule = kind;
    options.gpipe_microbatches = 4;
    options.num_minibatches = 200;
    options.fault.enabled = true;
    options.fault.stage = 3;
    options.fault.at_minibatch = 130;
    options.fault.checkpoint_every = 100;
    const auto result = SimulatePipeline(profile, plan, topo, options);

    EXPECT_GE(result.fault_seconds, 0.0) << ScheduleKindName(kind);
    EXPECT_GT(result.reexecuted_minibatches, 0) << ScheduleKindName(kind);
    // Rollback lands on a flush-round boundary at or below the checkpoint grid.
    EXPECT_LT(result.reexecuted_minibatches,
              options.fault.checkpoint_every + options.gpipe_microbatches)
        << ScheduleKindName(kind);
  }
}

TEST(SimFaultTest, InterleavedFaultRestartsFromTheCheckpoint) {
  // 8 chunk-stages on 4 devices (k = 2): killing chunk-stage 5 takes down device 1, which
  // also hosts stage 1. The restart recompiles every program from the rollback point.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {1, 2, 3, 4, 5, 6, 7});
  const auto topo = HardwareTopology::Flat(8, 1e12);
  SimOptions options;
  options.schedule = ScheduleKind::kInterleaved;
  options.interleave_chunks = 2;
  options.num_minibatches = 120;
  options.record_trace = true;
  options.fault.enabled = true;
  options.fault.stage = 5;
  options.fault.at_minibatch = 70;
  options.fault.checkpoint_every = 50;
  const auto result = SimulatePipeline(profile, plan, topo, options);

  EXPECT_GE(result.fault_seconds, 0.0);
  EXPECT_GT(result.reexecuted_minibatches, 0);
  // Every minibatch ran its forward and backward once on every chunk-stage (the trace
  // keeps the execution that stuck, not the rolled-back attempt).
  EXPECT_EQ(result.trace.size(), 2u * 8u * 120u);
  // The trace validates against the physical placement: chunk-stage s on device s mod 4.
  std::vector<StageAssignment> placement = plan.stages();
  for (size_t s = 0; s < placement.size(); ++s) {
    placement[s].workers = {static_cast<int>(s % 4)};
  }
  const Status status = result.trace.Validate(PipelinePlan(std::move(placement)));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(SimFaultTest, WorkerSpeedsScaleCompute) {
  // A uniformly half-speed cluster takes ~2x the compute-bound makespan.
  const auto profile = UniformProfile(8, 0.010, /*activation_bytes=*/1 << 10,
                                      /*param_bytes=*/1 << 10);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 200;
  const auto fast = SimulatePipeline(profile, plan, topo, options);
  options.worker_speeds = {0.5, 0.5, 0.5, 0.5};
  const auto slow = SimulatePipeline(profile, plan, topo, options);
  EXPECT_NEAR(slow.total_seconds, 2.0 * fast.total_seconds, 0.05 * slow.total_seconds);
  EXPECT_NEAR(slow.throughput_samples_per_sec, 0.5 * fast.throughput_samples_per_sec,
              0.05 * fast.throughput_samples_per_sec);

  // One slow worker on the bottleneck stage gates its stage at 2x.
  options.worker_speeds = {1.0, 1.0, 0.5, 1.0};
  const auto skewed = SimulatePipeline(profile, plan, topo, options);
  EXPECT_GT(skewed.total_seconds, 1.5 * fast.total_seconds);
  EXPECT_LT(skewed.total_seconds, slow.total_seconds);
}

TEST(SimFaultTest, ReplanRecoveryBeatsDegradedForever) {
  // Kill one input-stage replica on a skewed 4-worker cluster. Degraded mode leaves the
  // surviving replica serializing both residue classes forever; elastic re-planning
  // re-partitions the layers over the three survivors and recovers strictly more
  // steady-state throughput — the tentpole claim, priced in virtual time.
  const auto profile = UniformProfile(8, 0.010, /*activation_bytes=*/1 << 10,
                                      /*param_bytes=*/1 << 10);
  const auto plan = MakePlanFromShape({{4, 2}, {4, 2}});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 400;
  options.worker_speeds = {1.0, 1.0, 1.0, 0.5};
  options.fault.enabled = true;
  options.fault.stage = 0;
  options.fault.replica = 1;
  options.fault.at_minibatch = 201;  // replica 1 owns odd minibatches
  options.fault.detection_seconds = 0.1;
  options.fault.restart_seconds = 0.5;
  options.fault.checkpoint_every = 100;

  options.fault.degraded = true;
  const auto degraded = SimulatePipeline(profile, plan, topo, options);

  options.fault.degraded = false;
  options.fault.replan = true;
  options.fault.replan_seconds = 0.5;
  const auto replanned = SimulatePipeline(profile, plan, topo, options);

  ASSERT_GE(replanned.fault_seconds, 0.0);
  EXPECT_EQ(replanned.replans, 1);
  EXPECT_NEAR(replanned.replan_latency_seconds, options.fault.replan_seconds, 1e-9);
  // The re-plan pause covers partition + migration on top of detection + restart.
  EXPECT_NEAR(replanned.recovery_seconds - replanned.fault_seconds,
              options.fault.detection_seconds + options.fault.restart_seconds +
                  options.fault.replan_seconds,
              1e-9);
  // The final plan runs on the three survivors; the dead worker (stage 0 replica 1 =
  // worker 1) appears in no stage.
  EXPECT_EQ(replanned.final_plan.total_workers(), 3);
  for (const StageAssignment& stage : replanned.final_plan.stages()) {
    for (int worker : stage.workers) {
      EXPECT_NE(worker, 1);
    }
  }
  // The acceptance bar: re-planned steady state strictly beats degraded-forever.
  EXPECT_GT(replanned.post_recovery_throughput_samples_per_sec,
            degraded.post_recovery_throughput_samples_per_sec);
}

TEST(SimFaultTest, JoinWorkerReplansAndFinishes) {
  // A 3-worker pipeline; worker 3 joins after minibatch 150. The join re-plans over the
  // enlarged cluster without rolling back completed work, and the run finishes faster
  // than never admitting the newcomer.
  const auto profile = UniformProfile(8, 0.010, /*activation_bytes=*/1 << 10,
                                      /*param_bytes=*/1 << 10);
  const auto plan = MakeStraightPlan(8, {3, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 400;
  const auto baseline = SimulatePipeline(profile, plan, topo, options);

  options.fault.join_enabled = true;
  options.fault.join_at_minibatch = 150;
  options.fault.join_worker = 3;
  options.fault.replan_seconds = 0.5;
  const auto joined = SimulatePipeline(profile, plan, topo, options);

  EXPECT_EQ(joined.replans, 1);
  EXPECT_EQ(joined.final_plan.total_workers(), 4);
  EXPECT_EQ(joined.reexecuted_minibatches, 0);  // quiesce point: nothing rolls back
  // 4 workers on the back half beats 3 workers throughout, even after paying the
  // re-plan pause.
  EXPECT_LT(joined.total_seconds, baseline.total_seconds);
}

}  // namespace
}  // namespace pipedream
