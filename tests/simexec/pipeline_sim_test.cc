#include <gtest/gtest.h>

#include "src/planner/partitioner.h"
#include "src/planner/predictor.h"
#include "src/profile/model_zoo.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {
namespace {

// A model with `layers` equal layers; each stage of a balanced split costs the same.
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

TEST(PipelineSimTest, SingleWorkerMatchesComputeTime) {
  const auto profile = UniformProfile(4);
  const auto plan = MakeDataParallelPlan(4, 1);
  const auto topo = HardwareTopology::Flat(1, 1e12);
  SimOptions options;
  options.num_minibatches = 10;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  EXPECT_NEAR(result.total_seconds, 10 * profile.TotalComputeSeconds(), 1e-6);
  EXPECT_NEAR(result.worker_utilization[0], 1.0, 1e-6);
}

TEST(PipelineSimTest, OneFOneBKeepsWorkersBusyInSteadyState) {
  // §3.2: negligible pipeline stalls, no flushes — utilization near 1 on a balanced
  // 4-stage pipeline with fast links.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 200;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  for (int w = 0; w < 4; ++w) {
    EXPECT_GT(result.worker_utilization[static_cast<size_t>(w)], 0.93) << "worker " << w;
  }
}

TEST(PipelineSimTest, ModelParallelLeavesWorkersIdle) {
  // Figure 2: non-pipelined model parallelism keeps at most one worker active.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.schedule = ScheduleKind::kModelParallel;
  options.num_minibatches = 50;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  for (int w = 0; w < 4; ++w) {
    EXPECT_LT(result.worker_utilization[static_cast<size_t>(w)], 0.30) << "worker " << w;
  }
}

TEST(PipelineSimTest, PipeliningBeatsModelParallelByStageCount) {
  // §5.3: pipelining alone increases throughput by ~the stage count on balanced pipelines.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions pipelined;
  pipelined.num_minibatches = 200;
  SimOptions serial;
  serial.schedule = ScheduleKind::kModelParallel;
  serial.num_minibatches = 50;
  const auto fast = SimulatePipeline(profile, plan, topo, pipelined);
  const auto slow = SimulatePipeline(profile, plan, topo, serial);
  const double speedup =
      fast.throughput_samples_per_sec / slow.throughput_samples_per_sec;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 4.5);
}

TEST(PipelineSimTest, GPipeSlowerThanOneFOneBDueToFlushes) {
  // §5.4: with pipeline depth equal to NOAM, GPipe's flushes cost throughput.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions pd;
  pd.num_minibatches = 200;
  SimOptions gpipe;
  gpipe.schedule = ScheduleKind::kGPipe;
  gpipe.gpipe_microbatches = plan.Noam();
  gpipe.num_minibatches = 200;
  const auto pd_result = SimulatePipeline(profile, plan, topo, pd);
  const auto gp_result = SimulatePipeline(profile, plan, topo, gpipe);
  EXPECT_LT(gp_result.throughput_samples_per_sec,
            pd_result.throughput_samples_per_sec * 0.85);
}

TEST(PipelineSimTest, GPipeLargerRoundsCloseTheGap) {
  // Flush cost amortizes as the number of microbatches per flush grows.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  double previous = 0.0;
  for (int m : {4, 8, 16, 32}) {
    SimOptions options;
    options.schedule = ScheduleKind::kGPipe;
    options.gpipe_microbatches = m;
    options.num_minibatches = 256;
    const auto result = SimulatePipeline(profile, plan, topo, options);
    EXPECT_GT(result.throughput_samples_per_sec, previous) << m;
    previous = result.throughput_samples_per_sec;
  }
}

TEST(PipelineSimTest, TraceValidatesFor1F1B) {
  const auto profile = UniformProfile(6);
  const auto plan = MakeStraightPlan(6, {2, 4});
  const auto topo = HardwareTopology::Flat(3, 1e10);
  SimOptions options;
  options.num_minibatches = 30;
  options.record_trace = true;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  EXPECT_EQ(result.trace.size(), 2u * 3u * 30u);  // fwd+bwd x stages x minibatches
  const Status status = result.trace.Validate(plan);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PipelineSimTest, TraceValidatesForReplicatedStages) {
  // Figure 8's 2-1 configuration under 1F1B-RR.
  const auto profile = UniformProfile(6);
  const auto plan = MakePlanFromShape({{4, 2}, {2, 1}});
  const auto topo = HardwareTopology::Flat(3, 1e10);
  SimOptions options;
  options.num_minibatches = 40;
  options.record_trace = true;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  const Status status = result.trace.Validate(plan);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PipelineSimTest, TraceValidatesForGPipe) {
  const auto profile = UniformProfile(6);
  const auto plan = MakeStraightPlan(6, {2, 4});
  const auto topo = HardwareTopology::Flat(3, 1e10);
  SimOptions options;
  options.schedule = ScheduleKind::kGPipe;
  options.gpipe_microbatches = 4;
  options.num_minibatches = 40;
  options.record_trace = true;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  const Status status = result.trace.Validate(plan);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(PipelineSimTest, FlushFamilyRunsAShortFinalRound) {
  // 10 minibatches in rounds of 4: the last round holds 2. Every flush-family schedule
  // completes it, and GPipe stashes all m of a full round at every stage.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e10);
  for (const ScheduleKind kind : {ScheduleKind::kGPipe, ScheduleKind::kPipeDreamFlush,
                                  ScheduleKind::kModelParallel}) {
    SimOptions options;
    options.schedule = kind;
    options.gpipe_microbatches = 4;
    options.num_minibatches = 10;
    options.record_trace = true;
    const auto result = SimulatePipeline(profile, plan, topo, options);
    EXPECT_EQ(result.trace.size(), 2u * 4u * 10u) << ScheduleKindName(kind);
    const Status status = result.trace.Validate(plan);
    EXPECT_TRUE(status.ok()) << ScheduleKindName(kind) << ": " << status.ToString();
    if (kind == ScheduleKind::kGPipe) {
      EXPECT_EQ(result.stage_peak_stash, (std::vector<int>{4, 4, 4, 4}));
    }
  }
}

TEST(PipelineSimDeathTest, DepthOverrideRejectsReplicatedPlans) {
  // Clamping stage s to override - s starves a replicated stage of its round-robin share;
  // the simulator refuses the combination up front instead of deadlocking mid-run.
  const auto profile = UniformProfile(8);
  const auto plan = MakePlanFromShape({{2, 1}, {2, 2}, {2, 2}, {2, 3}});
  const auto topo = HardwareTopology::Flat(8, 1e10);
  SimOptions options;
  options.num_minibatches = 36;
  options.pipeline_depth_override = 4;
  EXPECT_DEATH(SimulatePipeline(profile, plan, topo, options),
               "pipeline_depth_override 4 above 1 requires an unreplicated plan");
  options.pipeline_depth_override = 1;  // one in flight per replica stays valid
  EXPECT_GT(SimulatePipeline(profile, plan, topo, options).throughput_samples_per_sec, 0.0);
}

TEST(PipelineSimTest, StashDepthMatchesStartupDepth) {
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 100;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  ASSERT_EQ(result.stage_peak_stash.size(), 4u);
  EXPECT_EQ(result.stage_peak_stash[0], 4);
  EXPECT_EQ(result.stage_peak_stash[1], 3);
  EXPECT_EQ(result.stage_peak_stash[2], 2);
  EXPECT_EQ(result.stage_peak_stash[3], 1);
}

TEST(PipelineSimTest, DepthOverrideBoundsStash) {
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions options;
  options.num_minibatches = 100;
  options.pipeline_depth_override = 2;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  EXPECT_LE(result.stage_peak_stash[0], 2);
}

TEST(PipelineSimTest, DeeperPipelineUsesMoreMemory) {
  // Figure 18b: memory grows with pipeline depth.
  const auto profile = UniformProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e9);
  int64_t previous = 0;
  for (int depth : {2, 3, 4}) {
    SimOptions options;
    options.num_minibatches = 100;
    options.pipeline_depth_override = depth;
    const auto result = SimulatePipeline(profile, plan, topo, options);
    int64_t max_mem = 0;
    for (int64_t m : result.worker_peak_memory) {
      max_mem = std::max(max_mem, m);
    }
    EXPECT_GE(max_mem, previous) << depth;
    previous = max_mem;
  }
}

TEST(PipelineSimTest, SlowBoundaryLinkBottlenecksThroughput) {
  // A huge activation over a slow link should cap throughput at the transfer rate.
  auto profile = UniformProfile(4, 0.001, /*activation_bytes=*/100 << 20);
  const auto plan = MakeStraightPlan(4, {2});
  const auto topo = HardwareTopology::Flat(2, 1e9);  // 100 MB over 1 GB/s = 0.1 s each way
  SimOptions options;
  options.num_minibatches = 50;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  // Bound: >= 0.1 s per minibatch (the forward transfer alone).
  EXPECT_LT(result.throughput_samples_per_sec, 32.0 / 0.1 * 1.05);
}

TEST(PipelineSimTest, DeterministicAcrossRuns) {
  const auto profile = MakeGnmtProfile(8);
  const auto result = PartitionFlat(profile, 4, 1.25e9);
  const auto topo = HardwareTopology::Flat(4, 1.25e9);
  SimOptions options;
  options.num_minibatches = 60;
  const auto a = SimulatePipeline(profile, result.plan, topo, options);
  const auto b = SimulatePipeline(profile, result.plan, topo, options);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.comm_bytes_total, b.comm_bytes_total);
  EXPECT_EQ(a.throughput_samples_per_sec, b.throughput_samples_per_sec);
}

TEST(PipelineSimTest, ReplicatedPlanOutperformsStraightWhenStagesUnbalanced) {
  // VGG-like shape: heavy stage 0, light stage 1 -> replicating stage 0 pays off.
  ModelProfile profile = UniformProfile(4, 0.02, 1 << 16, 1 << 16);
  profile.layers[3].fwd_seconds = 0.002;
  profile.layers[3].bwd_seconds = 0.004;
  const auto topo = HardwareTopology::Flat(4, 1e11);
  const auto straight = MakeStraightPlan(4, {1, 2, 3});
  const auto replicated = MakePlanFromShape({{3, 3}, {1, 1}});
  SimOptions options;
  options.num_minibatches = 120;
  const auto s = SimulatePipeline(profile, straight, topo, options);
  const auto r = SimulatePipeline(profile, replicated, topo, options);
  EXPECT_GT(r.throughput_samples_per_sec, s.throughput_samples_per_sec);
}

TEST(DataParallelSimTest, OverheadGrowsWithWorkers) {
  // Figure 1, takeaway 3.
  const auto profile = MakeVgg16Profile();
  double previous = 0.0;
  for (int servers : {1, 2, 4, 8}) {
    const auto topo = HardwareTopology::ClusterA(servers);
    const auto result = SimulateDataParallelBsp(profile, topo, servers * 4);
    EXPECT_GE(result.comm_overhead_fraction, previous - 1e-9) << servers;
    previous = result.comm_overhead_fraction;
  }
}

TEST(DataParallelSimTest, FasterGpusRaiseOverhead) {
  // Figure 1, takeaway 4: 1080Ti -> V100 increases the communication fraction.
  const auto slow_gpu = MakeVgg16Profile(64, DeviceSpec::Gtx1080Ti());
  const auto fast_gpu = MakeVgg16Profile(64, DeviceSpec::V100());
  const auto topo = HardwareTopology::ClusterA(4);
  const auto slow = SimulateDataParallelBsp(slow_gpu, topo, 16);
  const auto fast = SimulateDataParallelBsp(fast_gpu, topo, 16);
  EXPECT_GT(fast.comm_overhead_fraction, slow.comm_overhead_fraction);
}

TEST(DataParallelSimTest, ResnetScalesBetterThanVgg) {
  // Figure 1, takeaway 1: compact-weight models scale well.
  const auto topo = HardwareTopology::ClusterA(4);
  const auto vgg = SimulateDataParallelBsp(MakeVgg16Profile(), topo, 16);
  const auto resnet = SimulateDataParallelBsp(MakeResnet50Profile(), topo, 16);
  EXPECT_LT(resnet.comm_overhead_fraction, vgg.comm_overhead_fraction);
}

TEST(DataParallelSimTest, SingleWorkerHasNoOverhead) {
  const auto profile = MakeVgg16Profile();
  const auto topo = HardwareTopology::ClusterA(1);
  const auto result = SimulateDataParallelBsp(profile, topo, 1);
  EXPECT_EQ(result.comm_overhead_fraction, 0.0);
  EXPECT_EQ(result.stall_seconds, 0.0);
}

TEST(DataParallelSimTest, NvlinkReducesOverheadVersusPcie) {
  const auto profile = MakeVgg16Profile();
  const auto pcie = SimulateDataParallelBsp(profile, HardwareTopology::ClusterA(1), 4);
  const auto nvlink = SimulateDataParallelBsp(profile, HardwareTopology::ClusterB(1), 4);
  EXPECT_LE(nvlink.comm_overhead_fraction, pcie.comm_overhead_fraction);
}

TEST(PipelineSimTest, SyncBoundDpThrottledToAllReduceRate) {
  // BSP gating: a data-parallel plan whose all_reduce is far slower than compute must be
  // throttled to roughly the collective rate, not run at compute speed.
  ModelProfile profile = UniformProfile(4, /*fwd=*/0.0005, /*act=*/1 << 10,
                                        /*params=*/64 << 20);  // 256 MB of weights
  const auto plan = MakeDataParallelPlan(4, 4);
  const auto topo = HardwareTopology::Flat(4, 1e9);
  SimOptions options;
  options.num_minibatches = 64;
  const auto result = SimulatePipeline(profile, plan, topo, options);
  // Ring wall per round of 4 minibatches: 2(m-1)|w|/(m B), |w| = 4 layers x 64 MiB.
  const double total_weight_bytes = 4.0 * static_cast<double>(64 << 20);
  const double ring_wall = 2.0 * 3.0 * total_weight_bytes / (4.0 * 1e9);
  const double sync_bound = 4.0 * 32.0 / ring_wall;
  EXPECT_NEAR(result.throughput_samples_per_sec, sync_bound, sync_bound * 0.05);
  // And far below the pure-compute rate.
  const double compute_bound = 4.0 * 32.0 / (4 * 3 * 0.0005);
  EXPECT_LT(result.throughput_samples_per_sec, compute_bound * 0.5);
}

TEST(PipelineSimTest, GPipeRecomputeCostsThroughputSavesMemory) {
  const auto profile = UniformProfile(8, 0.010, 4 << 20, 1 << 20);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topo = HardwareTopology::Flat(4, 1e10);
  auto run = [&](bool recompute) {
    SimOptions options;
    options.schedule = ScheduleKind::kGPipe;
    options.gpipe_microbatches = 8;
    options.recompute = recompute;
    options.num_minibatches = 64;
    return SimulatePipeline(profile, plan, topo, options);
  };
  const auto stash = run(false);
  const auto recompute = run(true);
  EXPECT_LT(recompute.throughput_samples_per_sec, stash.throughput_samples_per_sec);
  int64_t stash_mem = 0;
  int64_t recompute_mem = 0;
  for (size_t w = 0; w < stash.worker_peak_memory.size(); ++w) {
    stash_mem = std::max(stash_mem, stash.worker_peak_memory[w]);
    recompute_mem = std::max(recompute_mem, recompute.worker_peak_memory[w]);
  }
  EXPECT_LT(recompute_mem, stash_mem);
}

TEST(PipelineSimTest, DataParallelThroughputMatchesPrediction) {
  // The predictor and the simulator price a replicated stage's sync with one cost model
  // (src/planner/cost_model.h). While the all_reduce hides under compute, the simulated
  // steady state is the predicted m / compute rate. The m replicas finish in lockstep, so
  // the steady-state window must count whole rounds: at the default 200 minibatches it opens
  // mid-round for m = 8 and 16, and m = 16 ends on a partial round; 256 does neither.
  const HardwareTopology topologies[] = {
      HardwareTopology::Flat(8, 1.25e9), HardwareTopology::Flat(8, 1e10),
      HardwareTopology::ClusterA(1),     HardwareTopology::ClusterA(2),
      HardwareTopology::ClusterB(2)};
  for (const int64_t minibatches : {SimOptions{}.num_minibatches, int64_t{256}}) {
    SimOptions options;
    options.num_minibatches = minibatches;
    int checked = 0;
    for (const HardwareTopology& topology : topologies) {
      for (const std::string& name : ModelZooNames()) {
        const ModelProfile profile = MakeProfileByName(name);
        for (const int workers : {2, 4, 8, 16}) {
          if (workers > topology.num_workers()) {
            continue;
          }
          const PipelinePlan plan = MakeDataParallelPlan(profile.num_layers(), workers);
          const PlanPrediction predicted = PredictPlan(profile, plan, topology);
          if (predicted.stages[0].sync_seconds >= predicted.stages[0].compute_seconds) {
            continue;
          }
          const SimResult simulated = SimulatePipeline(profile, plan, topology, options);
          EXPECT_NEAR(
              simulated.throughput_samples_per_sec / predicted.throughput_samples_per_sec, 1.0,
              1e-6)
              << name << " x" << workers << " on " << topology.name() << ", " << minibatches
              << " minibatches";
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 20);
  }
}

TEST(PipelineSimTest, StraightPipelineThroughputMatchesPrediction) {
  // On free links a balanced straight 1F1B pipeline runs at its slowest stage, the rate the
  // predictor prices; over 1,024 minibatches the fill and drain cost well under 1%.
  const auto topology = HardwareTopology::Flat(8, 1e15, 0.0);
  SimOptions options;
  options.num_minibatches = 1024;
  for (const std::string& name : ModelZooNames()) {
    const ModelProfile profile = MakeProfileByName(name);
    for (int stages = 2; stages <= std::min(8, profile.num_layers()); ++stages) {
      const PipelinePlan plan = MakeBalancedStraightPlan(profile, stages);
      const PlanPrediction predicted = PredictPlan(profile, plan, topology);
      const SimResult simulated = SimulatePipeline(profile, plan, topology, options);
      EXPECT_NEAR(simulated.throughput_samples_per_sec / predicted.throughput_samples_per_sec,
                  1.0, 0.01)
          << name << " in " << stages << " stages";
    }
  }
}

}  // namespace
}  // namespace pipedream
