#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <limits>

#include "src/common/rng.h"
#include "src/planner/partitioner.h"
#include "src/planner/predictor.h"
#include "src/profile/model_zoo.h"
#include "src/sim/topology.h"

namespace pipedream {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ModelProfile RandomProfile(int layers, uint64_t seed) {
  Rng rng(seed);
  ModelProfile profile;
  profile.model_name = "random";
  profile.minibatch_size = 32;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = rng.Uniform(0.001, 0.05);
    layer.bwd_seconds = 2.0 * layer.fwd_seconds;
    layer.activation_bytes = static_cast<int64_t>(rng.Uniform(1e4, 5e6));
    layer.param_bytes = static_cast<int64_t>(rng.Uniform(1e4, 5e7));
    profile.layers.push_back(layer);
  }
  return profile;
}

// Exhaustive reference for the single-level DP: tries every contiguous split into stages and
// every replica allocation, evaluating the same cost model.
double BruteForceBest(const ModelProfile& profile, int workers, double bandwidth) {
  const int n = profile.num_layers();
  double best = kInf;
  // stage_time with replication, matching the paper's T formula.
  auto stage_time = [&](int begin, int end, int m) {
    const double compute = profile.ComputeSeconds(begin, end);
    if (m == 1) {
      return compute;
    }
    const double sync = 2.0 * (m - 1) *
                        static_cast<double>(profile.ParamBytes(begin, end)) / (m * bandwidth);
    return std::max(compute, sync) / m;
  };
  // Recursively choose the next stage boundary and its replica count.
  std::function<void(int, int, double)> recurse = [&](int begin, int workers_left,
                                                      double current_max) {
    if (begin == n) {
      if (workers_left >= 0) {
        best = std::min(best, current_max);
      }
      return;
    }
    if (workers_left <= 0 || current_max >= best) {
      return;
    }
    for (int end = begin + 1; end <= n; ++end) {
      double boundary = 0.0;
      if (begin > 0) {
        boundary = 2.0 * static_cast<double>(profile.BoundaryActivationBytes(begin - 1)) /
                   bandwidth;
      }
      for (int m = 1; m <= workers_left; ++m) {
        // Force using all workers only at the full partition level: the DP also uses all m.
        const double t = std::max({current_max, boundary, stage_time(begin, end, m)});
        if (end == n && m != workers_left) {
          continue;  // must use exactly the worker budget, like A(0, N-1, m)
        }
        recurse(end, workers_left - m, t);
      }
    }
  };
  recurse(0, workers, 0.0);
  return best;
}

class FlatVsBruteForceTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlatVsBruteForceTest, DpMatchesExhaustiveSearch) {
  const auto [layers, workers] = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto profile = RandomProfile(layers, seed);
    const double bandwidth = 2e9;
    const auto result = PartitionFlat(profile, workers, bandwidth);
    const double brute = BruteForceBest(profile, workers, bandwidth);
    EXPECT_NEAR(result.bottleneck_seconds, brute, brute * 1e-9)
        << "layers=" << layers << " workers=" << workers << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallInstances, FlatVsBruteForceTest,
                         ::testing::Values(std::make_tuple(4, 2), std::make_tuple(5, 3),
                                           std::make_tuple(6, 4), std::make_tuple(7, 3),
                                           std::make_tuple(5, 5)));

TEST(PartitionerTest, SingleWorkerIsSingleStage) {
  const auto profile = MakeAlexNetProfile();
  const auto result = PartitionFlat(profile, 1, 1e9);
  EXPECT_EQ(result.plan.num_stages(), 1);
  EXPECT_NEAR(result.bottleneck_seconds, profile.TotalComputeSeconds(), 1e-9);
}

TEST(PartitionerTest, PlanUsesAllWorkers) {
  const auto profile = MakeVgg16Profile();
  const auto result = PartitionFlat(profile, 8, 1.25e9);
  EXPECT_EQ(result.plan.total_workers(), 8);
  result.plan.Validate(profile.num_layers());
}

TEST(PartitionerTest, BottleneckNeverWorseThanDataParallel) {
  // The DP search space includes vanilla DP, so its optimum can only be at least as good.
  for (const auto& name : ModelZooNames()) {
    const auto profile = MakeProfileByName(name);
    const double bandwidth = 1.25e9;
    const int workers = 8;
    const auto result = PartitionFlat(profile, workers, bandwidth);
    const double dp_time =
        std::max(profile.TotalComputeSeconds(),
                 2.0 * (workers - 1) * static_cast<double>(profile.TotalParamBytes()) /
                     (workers * bandwidth)) /
        workers;
    EXPECT_LE(result.bottleneck_seconds, dp_time * (1 + 1e-9)) << name;
  }
}

TEST(PartitionerTest, Vgg16PrefersReplicatedConvStage) {
  // §5.2: on slow interconnects VGG-16's best config replicates the conv layers and keeps
  // the big FC layers unreplicated (15-1 on 16 workers).
  const auto profile = MakeVgg16Profile();
  PartitionerOptions options;
  options.collective_efficiency = 0.3;  // cloud TCP reality (see topology presets)
  options.p2p_efficiency = 0.7;
  const auto result = PartitionFlat(profile, 16, 1.25e9, options);  // 10 Gbps
  ASSERT_GE(result.plan.num_stages(), 2);
  EXPECT_GT(result.plan.stage(0).replicas, 8);
  // The final stage (FC-heavy) should be small.
  EXPECT_LE(result.plan.stage(result.plan.num_stages() - 1).replicas, 2);
  EXPECT_FALSE(result.plan.IsDataParallel(profile.num_layers()));
}

TEST(PartitionerTest, Resnet50GainsNothingOverDataParallel) {
  // §5.2 / Table 1: PipeDream's speedup over DP for ResNet-50 is 1x — the best plan the
  // optimizer can find is (essentially) data parallelism. Under the cost model the optimum
  // may be a DP-dominant hybrid that ties DP within a few percent, so assert the *speedup*
  // rather than the exact config, plus that every stage stays heavily replicated.
  const auto profile = MakeResnet50Profile();
  const int workers = 16;
  const double bandwidth = 1.25e9;
  PartitionerOptions options;
  options.collective_efficiency = 0.3;
  options.p2p_efficiency = 0.7;
  const auto result = PartitionFlat(profile, workers, bandwidth, options);
  const double dp_time =
      std::max(profile.TotalComputeSeconds(),
               2.0 * (workers - 1) * static_cast<double>(profile.TotalParamBytes()) /
                   (workers * bandwidth * options.collective_efficiency)) /
      workers;
  const double resnet_speedup = dp_time / result.bottleneck_seconds;
  EXPECT_LT(resnet_speedup, 2.5) << "got " << result.plan.ConfigString(profile.num_layers());
  // The plan stays DP-dominant: the stage carrying the bulk of the compute is replicated
  // across at least half the workers (a tiny tail stage like the final FC may be peeled off).
  double best_compute = 0.0;
  int bulk_replicas = 0;
  for (const auto& stage : result.plan.stages()) {
    const double compute = profile.ComputeSeconds(stage.begin_layer, stage.end_layer);
    if (compute > best_compute) {
      best_compute = compute;
      bulk_replicas = stage.replicas;
    }
  }
  EXPECT_GE(bulk_replicas, workers / 2)
      << "got " << result.plan.ConfigString(profile.num_layers());
  // And VGG-16's advantage over DP is far larger (Table 1: 5.28x vs 1x).
  const auto vgg = MakeVgg16Profile();
  const auto vgg_result = PartitionFlat(vgg, workers, bandwidth, options);
  const double vgg_dp =
      std::max(vgg.TotalComputeSeconds(),
               2.0 * (workers - 1) * static_cast<double>(vgg.TotalParamBytes()) /
                   (workers * bandwidth * options.collective_efficiency)) /
      workers;
  const double vgg_speedup = vgg_dp / vgg_result.bottleneck_seconds;
  EXPECT_GT(vgg_speedup, resnet_speedup * 2.0);
}

TEST(PartitionerTest, GnmtPrefersPipelineOnSlowLinks) {
  // §5.2: GNMT's dense LSTM weights make DP expensive on 10 Gbps; pipelining wins.
  const auto profile = MakeGnmtProfile(16);
  PartitionerOptions options;
  options.collective_efficiency = 0.3;
  options.p2p_efficiency = 0.7;
  const auto result = PartitionFlat(profile, 16, 1.25e9, options);
  EXPECT_FALSE(result.plan.IsDataParallel(profile.num_layers()));
  EXPECT_GE(result.plan.num_stages(), 2);
}

TEST(PartitionerTest, FastInterconnectShiftsTowardDataParallel) {
  // GNMT-8 on NVLink-class bandwidth: DP becomes competitive (paper: PipeDream "falls back
  // to data parallelism" for GNMT-8 on Cluster-B).
  const auto profile = MakeGnmtProfile(8);
  const auto slow = PartitionFlat(profile, 8, 1.25e9);
  const auto fast = PartitionFlat(profile, 8, 25e9);
  EXPECT_LE(fast.plan.num_stages(), slow.plan.num_stages());
}

TEST(PartitionerTest, NoReplicationOptionForcesStraight) {
  const auto profile = MakeGnmtProfile(8);
  PartitionerOptions options;
  options.allow_replication = false;
  const auto result = PartitionFlat(profile, 4, 1e9, options);
  EXPECT_TRUE(result.plan.IsStraight());
  EXPECT_EQ(result.plan.num_stages(), 4);
}

TEST(PartitionerTest, MoreWorkersNeverHurtPredictedThroughput) {
  const auto profile = MakeVgg16Profile();
  double previous = kInf;
  for (int workers : {1, 2, 4, 8, 16}) {
    const auto result = PartitionFlat(profile, workers, 1.25e9);
    EXPECT_LE(result.bottleneck_seconds, previous * (1 + 1e-9)) << workers;
    previous = result.bottleneck_seconds;
  }
}

TEST(PartitionerTest, HierarchicalMatchesFlatOnSingleLevel) {
  const auto profile = MakeAlexNetProfile();
  const auto topo = HardwareTopology::Flat(4, 2e9);
  const auto flat = PartitionFlat(profile, 4, 2e9);
  const auto hier = PartitionHierarchical(profile, topo, {});
  EXPECT_NEAR(flat.bottleneck_seconds, hier.bottleneck_seconds, 1e-12);
}

TEST(PartitionerTest, HierarchicalRespectsComponentBoundaries) {
  const auto profile = MakeGnmtProfile(16);
  const auto topo = HardwareTopology::ClusterA(2);  // 2 servers x 4 GPUs
  const auto result = PartitionHierarchical(profile, topo, {});
  result.plan.Validate(profile.num_layers());
  EXPECT_EQ(result.plan.total_workers(), 8);
  EXPECT_GT(result.bottleneck_seconds, 0.0);
}

TEST(PartitionerTest, HierarchicalNoWorseThanNaiveDataParallelAcrossServers) {
  const auto profile = MakeGnmtProfile(16);
  const auto topo = HardwareTopology::ClusterA(4);
  const auto result = PartitionHierarchical(profile, topo, {});
  const double cross_bw = topo.level(2).effective_collective_bandwidth();
  const double dp_time =
      std::max(profile.TotalComputeSeconds(),
               2.0 * 15.0 * static_cast<double>(profile.TotalParamBytes()) /
                   (16.0 * cross_bw)) /
      16.0;
  EXPECT_LT(result.bottleneck_seconds, dp_time);
}

TEST(PartitionerTest, MemoryConstraintForcesMoreStages) {
  const auto profile = MakeAwdLmProfile();  // ~0.4 GB of weights
  PartitionerOptions unconstrained;
  const auto loose = PartitionFlat(profile, 4, 1e9, unconstrained);
  PartitionerOptions tight;
  // Too small for the whole model on one device, so a single-stage DP plan is infeasible.
  tight.device_memory_bytes = profile.TotalParamBytes() * 2;
  const auto constrained = PartitionFlat(profile, 4, 1e9, tight);
  EXPECT_GE(constrained.plan.num_stages(), 2);
  // The constrained optimum cannot beat the unconstrained one.
  EXPECT_GE(constrained.bottleneck_seconds, loose.bottleneck_seconds - 1e-12);
}

// Activation-heavy profile: tiny weights, 1 MB activations per layer — the regime where
// weight-mode selection (2BW) cannot rescue a busting stage but recomputation can.
ModelProfile ActivationHeavyProfile(int layers) {
  ModelProfile profile;
  profile.model_name = "act_heavy";
  profile.minibatch_size = 32;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = 0.01;
    layer.bwd_seconds = 0.02;
    layer.activation_bytes = 1'000'000;
    layer.param_bytes = 1'000;
    profile.layers.push_back(layer);
  }
  return profile;
}

TEST(ChooseRecomputeTest, FlipsOnlyTheMemoryBustingStage) {
  // 2 stages of 4 layers each (noam = 2). Stage 0 stashes 2 in-flight working sets:
  // 3w + 2 * 4 MB ≈ 8 MB, busting a 6 MB device; recompute drops it to 3w + 4 MB (its
  // inbound boundary is the data loader, priced at 0). Stage 1 holds one working set
  // (~4 MB) and already fits — it must not be touched.
  const auto profile = ActivationHeavyProfile(8);
  auto plan = MakeStraightPlan(8, {4});
  EXPECT_EQ(ChooseRecompute(profile, 6'000'000, &plan), 1);
  EXPECT_TRUE(plan.stage(0).recompute);
  EXPECT_FALSE(plan.stage(1).recompute);
  // Idempotent: the flipped plan already fits (or is already recomputing).
  EXPECT_EQ(ChooseRecompute(profile, 6'000'000, &plan), 0);
}

TEST(ChooseRecomputeTest, UnconstrainedBudgetLeavesThePlanAlone) {
  const auto profile = ActivationHeavyProfile(8);
  auto plan = MakeStraightPlan(8, {4});
  EXPECT_EQ(ChooseRecompute(profile, 0, &plan), 0);
  EXPECT_EQ(ChooseRecompute(profile, -1, &plan), 0);
  for (const StageAssignment& stage : plan.stages()) {
    EXPECT_FALSE(stage.recompute);
  }
}

TEST(ChooseRecomputeTest, SkipsStagesRecomputeCannotShrink) {
  // Single-layer stages: a stage's working set *is* one boundary-sized activation, so
  // recompute (boundary_in * in_flight + act) only helps where the stash depth exceeds 1.
  // Stage 1 (in_flight = 1) would grow from 2w + act to 2w + boundary + act — even an
  // impossible budget must not flip it.
  const auto profile = ActivationHeavyProfile(2);
  auto plan = MakeStraightPlan(2, {1});
  EXPECT_EQ(ChooseRecompute(profile, 1, &plan), 1);
  EXPECT_TRUE(plan.stage(0).recompute);   // 3w + 2 act -> 3w + 1 act: shrinks
  EXPECT_FALSE(plan.stage(1).recompute);  // would grow: left stashing
}

TEST(ChooseRecomputeTest, RunsAfterWeightModesInThePartitionPipeline) {
  // The documented order: ChooseWeightModes first (2BW caps the weight term), then
  // ChooseRecompute for stages still busting on activations. With tiny weights the 2BW
  // pass is a no-op here and the recompute pass does the real work.
  const auto profile = ActivationHeavyProfile(8);
  auto plan = MakeStraightPlan(8, {2, 4, 6});  // 4 stages, noam = 4
  const int64_t budget = 5'000'000;
  ChooseWeightModes(profile, budget, &plan);
  const int flipped = ChooseRecompute(profile, budget, &plan);
  EXPECT_GE(flipped, 1);
  EXPECT_TRUE(plan.stage(0).recompute);  // deepest stash ramp busts first
}

ModelProfile UniformComputeProfile(int layers, double fwd_seconds) {
  ModelProfile profile;
  profile.model_name = "uniform";
  profile.minibatch_size = 32;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = fwd_seconds;
    layer.bwd_seconds = 2.0 * fwd_seconds;
    layer.activation_bytes = 1 << 10;  // negligible: the plan is compute-bound
    layer.param_bytes = 1 << 10;
    profile.layers.push_back(layer);
  }
  return profile;
}

TEST(PartitionerTest, HeterogeneousUniformSpeedsMatchesFlat) {
  // With every speed equal, the heterogeneous DP must reduce to the flat DP (the uniform
  // fast path literally delegates); a non-1.0 common speed just rescales the bottleneck.
  const auto profile = RandomProfile(10, 77);
  for (int workers = 2; workers <= 4; ++workers) {
    const auto flat = PartitionFlat(profile, workers, 1e9);
    const std::vector<WorkerSpec> specs(workers, WorkerSpec{1.0, 0});
    const auto het = PartitionHeterogeneous(profile, specs, 1e9);
    EXPECT_NEAR(het.bottleneck_seconds, flat.bottleneck_seconds,
                1e-12 * flat.bottleneck_seconds)
        << workers << " workers";
    const std::vector<WorkerSpec> half(workers, WorkerSpec{0.5, 0});
    const auto het_half = PartitionHeterogeneous(profile, half, 1e9);
    EXPECT_NEAR(het_half.bottleneck_seconds, 2.0 * flat.bottleneck_seconds,
                1e-9 * flat.bottleneck_seconds);
  }
}

TEST(PartitionerTest, SkewedClusterShiftsLayersOffSlowWorker) {
  // Speeds {1, 1, 0.5} over 12 uniform layers: a uniform split {4,4,4} leaves the half-
  // speed device holding 4 layers at 2x cost (effective 0.24 s); the heterogeneous DP
  // gives it a thin tail instead (e.g. {5,5,2} -> 0.15 s bottleneck).
  const auto profile = UniformComputeProfile(12, 0.010);
  const std::vector<WorkerSpec> specs = {{1.0, 0}, {1.0, 0}, {0.5, 0}};
  PartitionerOptions options;
  options.allow_replication = false;  // isolate the layer-placement effect
  const auto het = PartitionHeterogeneous(profile, specs, 1e12, options);
  het.plan.Validate(profile.num_layers());
  ASSERT_EQ(het.plan.num_stages(), 3);
  EXPECT_EQ(het.plan.total_workers(), 3);  // every worker is used

  int slow_layers = -1;
  for (const StageAssignment& stage : het.plan.stages()) {
    ASSERT_EQ(stage.workers.size(), 1u);
    if (stage.workers[0] == 2) slow_layers = stage.num_layers();
  }
  ASSERT_GE(slow_layers, 1) << "slow worker missing from the plan";
  EXPECT_LT(slow_layers, 4) << "slow worker still holds a uniform share";
  // Per-layer fwd+bwd = 0.03 s; the optimum puts 2 layers on the slow device: all three
  // stages land at 0.10-0.15 s and the bottleneck is the slow stage at 0.12 s... the DP
  // knows best — just pin the bound the uniform split cannot beat.
  EXPECT_LT(het.bottleneck_seconds, 0.24 - 1e-9);
  EXPECT_GE(het.bottleneck_seconds, 12 * 0.030 / (1.0 + 1.0 + 0.5) - 1e-9);  // work bound
}

TEST(PartitionerTest, SkewedPredictionBeatsUniformPlan) {
  // The speed-aware predictor prices both plans on the same skewed cluster: the
  // heterogeneous plan's predicted throughput strictly beats the uniform plan's.
  const auto profile = UniformComputeProfile(12, 0.010);
  const std::vector<WorkerSpec> specs = {{1.0, 0}, {1.0, 0}, {0.5, 0}};
  PartitionerOptions options;
  options.allow_replication = false;
  const auto het = PartitionHeterogeneous(profile, specs, 1e12, options);
  const auto uniform = PartitionFlat(profile, 3, 1e12, options);

  const auto topology = HardwareTopology::Flat(3, 1e12);
  const auto het_pred = PredictPlan(profile, het.plan, topology, {}, specs);
  const auto uniform_pred = PredictPlan(profile, uniform.plan, topology, {}, specs);
  EXPECT_GT(het_pred.throughput_samples_per_sec,
            uniform_pred.throughput_samples_per_sec * 1.2)
      << "het " << het.plan.ConfigString(profile.num_layers()) << " vs uniform "
      << uniform.plan.ConfigString(profile.num_layers());
  // Prediction and DP agree on the heterogeneous bottleneck.
  EXPECT_NEAR(het_pred.bottleneck_seconds, het.bottleneck_seconds,
              1e-9 + 0.01 * het.bottleneck_seconds);
}

TEST(PartitionerTest, RunsFastOnAllZooModels) {
  // §5.5: the optimizer completes in seconds. Here: all seven models x 16 workers in < 5 s.
  const auto start = std::chrono::steady_clock::now();
  for (const auto& name : ModelZooNames()) {
    const auto profile = MakeProfileByName(name);
    PartitionFlat(profile, 16, 1.25e9);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 5.0);
}

}  // namespace
}  // namespace pipedream
