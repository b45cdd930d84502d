// End-to-end fault-injection tests for the crash-recovery runtime: kill / stall / delay /
// drop / corrupt faults against live pipelines, detection by heartbeat and progress
// watchdogs, and recovery-equivalence — a killed-and-recovered run must match an
// uninterrupted run bitwise (stateless optimizer; see DESIGN.md "Fault tolerance").
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <unistd.h>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/fault.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

// Timeouts sized for unit-test minibatches (microseconds of compute per pass).
RecoveryOptions FastRecovery() {
  RecoveryOptions options;
  options.heartbeat_timeout_ms = 1000;
  options.progress_timeout_ms = 400;
  options.worker_tick_ms = 5;
  options.watchdog_poll_ms = 2;
  return options;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pd_fault_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Subdir(const std::string& name) {
    const auto path = dir_ / name;
    std::filesystem::create_directories(path);
    return path.string();
  }

  std::filesystem::path dir_;
};

void ExpectBitwiseEqual(const PipelineTrainer& a, const PipelineTrainer& b) {
  const auto ma = a.AssembleModel();
  const auto mb = b.AssembleModel();
  const auto pa = ma->Params();
  const auto pb = mb->Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0) << pa[i]->name;
  }
}

TEST(FaultPlanTest, ParseRoundTrip) {
  const auto parsed =
      FaultPlan::Parse("kill:stage=1,mb=12;stall:stage=0,replica=1,mb=30,ms=250,dir=bwd");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].kind, FaultKind::kKillWorker);
  EXPECT_EQ(parsed->events[0].stage, 1);
  EXPECT_EQ(parsed->events[0].minibatch, 12);
  EXPECT_EQ(parsed->events[1].kind, FaultKind::kStallWorker);
  EXPECT_EQ(parsed->events[1].replica, 1);
  EXPECT_EQ(parsed->events[1].work, WorkType::kBackward);
  EXPECT_DOUBLE_EQ(parsed->events[1].duration_ms, 250.0);
  // ToString re-parses to the same plan.
  const auto reparsed = FaultPlan::Parse(parsed->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), parsed->ToString());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("explode:stage=0").ok());
  EXPECT_FALSE(FaultPlan::Parse("kill:stage").ok());
  EXPECT_FALSE(FaultPlan::Parse("kill:stage=x").ok());
  EXPECT_FALSE(FaultPlan::Parse("kill:dir=sideways").ok());
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  const auto plan = MakePlanFromShape({{2, 2}, {1, 1}});
  const FaultPlan a = FaultPlan::Random(42, plan, 100, /*num_faults=*/4);
  const FaultPlan b = FaultPlan::Random(42, plan, 100, /*num_faults=*/4);
  const FaultPlan c = FaultPlan::Random(43, plan, 100, /*num_faults=*/4);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), c.ToString());
  for (const FaultEvent& e : a.events) {
    EXPECT_LT(e.stage, plan.num_stages());
    EXPECT_LT(e.replica, plan.stage(e.stage).replicas);
    EXPECT_LT(e.minibatch, 100);
  }
}

TEST_F(FaultInjectionTest, KilledWorkerRecoversBitwise) {
  // Kill stage 1 mid-epoch-1. Recovery restores the epoch-0 checkpoint and replays; with a
  // stateless optimizer the final weights match an uninterrupted run bit-for-bit.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5);
  };

  auto clean = make_trainer();
  CheckpointManager clean_manager(Subdir("clean"));
  clean->EnableRecovery(&clean_manager, FastRecovery());
  for (int e = 0; e < 4; ++e) {
    clean->TrainEpoch();
  }

  auto faulty = make_trainer();
  CheckpointManager faulty_manager(Subdir("faulty"));
  faulty->EnableRecovery(&faulty_manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                         /*minibatch=*/bpe + bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);

  faulty->TrainEpoch();  // epoch 0: clean, checkpointed
  const EpochStats hit = faulty->TrainEpoch();  // epoch 1: killed, recovered, replayed
  EXPECT_EQ(hit.recoveries, 1);
  EXPECT_EQ(hit.failures_detected, 1);
  faulty->TrainEpoch();
  faulty->TrainEpoch();

  EXPECT_EQ(injector.faults_fired(), 1);
  ASSERT_EQ(faulty->failures().size(), 1u);
  EXPECT_EQ(faulty->failures()[0].stage, 1);
  EXPECT_EQ(faulty->failures()[0].resumed_epoch, 0);
  EXPECT_FALSE(faulty->failures()[0].degraded);
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, Killed2bwWorkerRecoversBitwise) {
  // Same kill/recover/replay scenario under WeightMode::kDoubleBuffered: param-only
  // checkpoints are still sufficient for bitwise replay because the pipeline drains at
  // epoch boundaries — the gradient accumulator is empty and the shadow buffer is dead
  // (no in-flight minibatch can reference it), so a fresh WeightStore loses nothing.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    PipelineTrainerOptions options;
    options.weight_mode = WeightMode::kDoubleBuffered;
    options.accumulation_steps = 2;  // covers the 2-stage pipeline's in-flight depth
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5,
                                             options);
  };

  auto clean = make_trainer();
  CheckpointManager clean_manager(Subdir("clean_2bw"));
  clean->EnableRecovery(&clean_manager, FastRecovery());
  for (int e = 0; e < 4; ++e) {
    clean->TrainEpoch();
  }

  auto faulty = make_trainer();
  CheckpointManager faulty_manager(Subdir("faulty_2bw"));
  faulty->EnableRecovery(&faulty_manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                         /*minibatch=*/bpe + bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);

  faulty->TrainEpoch();                         // epoch 0: clean, checkpointed
  const EpochStats hit = faulty->TrainEpoch();  // epoch 1: killed, recovered, replayed
  EXPECT_EQ(hit.recoveries, 1);
  faulty->TrainEpoch();
  faulty->TrainEpoch();

  EXPECT_EQ(injector.faults_fired(), 1);
  ASSERT_EQ(faulty->failures().size(), 1u);
  EXPECT_EQ(faulty->failures()[0].resumed_epoch, 0);
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, KillBeforeFirstCheckpointRestoresInitialWeights) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5);
  };
  auto clean = make_trainer();
  clean->TrainEpoch();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager manager(Subdir("ckpt"));
  faulty->EnableRecovery(&manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/0,
                         /*minibatch=*/bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);
  const EpochStats hit = faulty->TrainEpoch();  // epoch 0: no checkpoint exists yet
  EXPECT_EQ(hit.recoveries, 1);
  faulty->TrainEpoch();

  ASSERT_EQ(faulty->failures().size(), 1u);
  EXPECT_EQ(faulty->failures()[0].resumed_epoch, -1);  // restored from initial weights
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, DegradedRecoveryEjectsDeadReplica) {
  // 2-1 configuration; killing one input-stage replica triggers the cheap path: eject it
  // from the all-reduce ring, rebalance 1F1B-RR over the survivor, keep training.
  const Dataset data = MakeGaussianMixture(3, 6, 96, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.1);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16}, 3, &rng);
  const auto plan = MakePlanFromShape({{2, 2}, {1, 1}});
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 12, /*seed=*/5);
  CheckpointManager manager(Subdir("ckpt"));
  trainer.EnableRecovery(&manager, FastRecovery());
  const int64_t bpe = trainer.batches_per_epoch();

  FaultPlan fault_plan;
  // Replica 1 owns odd minibatches; target one in epoch 1.
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/1,
                               /*minibatch=*/bpe + 1, WorkType::kForward, 0.0});
  FaultInjector injector(fault_plan);
  trainer.SetFaultInjector(&injector);

  EXPECT_EQ(trainer.ActiveReplicas(0), 2);
  trainer.TrainEpoch();
  const EpochStats hit = trainer.TrainEpoch();
  EXPECT_EQ(hit.recoveries, 1);
  EXPECT_EQ(trainer.ActiveReplicas(0), 1);
  ASSERT_EQ(trainer.failures().size(), 1u);
  EXPECT_TRUE(trainer.failures()[0].degraded);
  EXPECT_EQ(trainer.failures()[0].stage, 0);
  EXPECT_EQ(trainer.failures()[0].replica, 1);

  // The degraded pipeline still trains: full epochs, finite and decreasing loss.
  EpochStats last{};
  for (int e = 0; e < 4; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_EQ(last.minibatches, bpe);
  EXPECT_TRUE(std::isfinite(last.mean_loss));
}

TEST_F(FaultInjectionTest, CorruptedMessageDetectedByChecksumAndRecovered) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5);
  };
  auto clean = make_trainer();
  clean->TrainEpoch();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager manager(Subdir("ckpt"));
  faulty->EnableRecovery(&manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kCorruptMessage, /*stage=*/0, /*replica=*/0,
                         /*minibatch=*/bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);
  const EpochStats hit = faulty->TrainEpoch();
  EXPECT_GE(hit.failures_detected, 1);
  faulty->TrainEpoch();

  ASSERT_GE(faulty->failures().size(), 1u);
  EXPECT_EQ(faulty->failures()[0].stage, 1);  // the receiver detects the corruption
  // The poisoned gradient never reached the weights: the replay matches a clean run.
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, DroppedMessageTriggersProgressWatchdog) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5);
  };
  auto clean = make_trainer();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager manager(Subdir("ckpt"));
  faulty->EnableRecovery(&manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kDropMessage, /*stage=*/0, /*replica=*/0,
                         /*minibatch=*/bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);
  const EpochStats hit = faulty->TrainEpoch();
  EXPECT_EQ(hit.recoveries, 1);
  ASSERT_GE(faulty->failures().size(), 1u);
  // A lost message implicates nobody in particular: the global progress stall fires.
  EXPECT_EQ(faulty->failures()[0].stage, -1);
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, StallDelaysWithoutTriggeringRecovery) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5);
  };
  auto clean = make_trainer();
  clean->TrainEpoch();

  auto stalled = make_trainer();
  CheckpointManager manager(Subdir("ckpt"));
  stalled->EnableRecovery(&manager, FastRecovery());
  FaultPlan plan;
  plan.events.push_back({FaultKind::kStallWorker, /*stage=*/1, /*replica=*/0,
                         /*minibatch=*/2, WorkType::kForward, /*duration_ms=*/30.0});
  FaultInjector injector(plan);
  stalled->SetFaultInjector(&injector);
  const EpochStats stats = stalled->TrainEpoch();
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(stats.failures_detected, 0);
  EXPECT_EQ(injector.faults_fired(), 1);
  ExpectBitwiseEqual(*clean, *stalled);  // a stall is latency, not a numerical change
}

TEST_F(FaultInjectionTest, GPipeKillRecoversBitwise) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kGPipe;
  options.gpipe_microbatches = 4;
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5,
                                             options);
  };
  auto clean = make_trainer();
  CheckpointManager clean_manager(Subdir("clean"));
  clean->EnableRecovery(&clean_manager, FastRecovery());
  clean->TrainEpoch();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager faulty_manager(Subdir("faulty"));
  faulty->EnableRecovery(&faulty_manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                         /*minibatch=*/bpe + 1, WorkType::kBackward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);
  faulty->TrainEpoch();
  const EpochStats hit = faulty->TrainEpoch();
  EXPECT_EQ(hit.recoveries, 1);
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, PipeDreamFlushKillRecoversBitwise) {
  // Same kill/recover/replay contract under the flush schedule: the checkpoint is taken at
  // an epoch boundary (pipeline drained, round counters reset), so replay re-runs whole
  // rounds and lands on identical weights.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kPipeDreamFlush;
  options.gpipe_microbatches = 4;
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5,
                                             options);
  };
  auto clean = make_trainer();
  CheckpointManager clean_manager(Subdir("clean"));
  clean->EnableRecovery(&clean_manager, FastRecovery());
  clean->TrainEpoch();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager faulty_manager(Subdir("faulty"));
  faulty->EnableRecovery(&faulty_manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                         /*minibatch=*/bpe + 1, WorkType::kBackward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);
  faulty->TrainEpoch();
  const EpochStats hit = faulty->TrainEpoch();
  EXPECT_EQ(hit.recoveries, 1);
  ExpectBitwiseEqual(*clean, *faulty);
}

TEST_F(FaultInjectionTest, InterleavedKillRecoversBitwise) {
  // Interleaved virtual stages: killing chunk-stage 1 takes down physical worker 1 and both
  // chunks it hosts. Recovery rebuilds every stage from the epoch checkpoint and the static
  // op lists replay deterministically, so the rerun matches an uninterrupted run bitwise.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kInterleaved;
  options.interleave_chunks = 2;
  auto make_trainer = [&] {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8, 8}, 3, &rng);  // 5 layers
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 2, 3});
    return std::make_unique<PipelineTrainer>(*model, plan, &loss, sgd, &data, 8, /*seed=*/5,
                                             options);
  };
  auto clean = make_trainer();
  CheckpointManager clean_manager(Subdir("clean"));
  clean->EnableRecovery(&clean_manager, FastRecovery());
  clean->TrainEpoch();
  clean->TrainEpoch();

  auto faulty = make_trainer();
  CheckpointManager faulty_manager(Subdir("faulty"));
  faulty->EnableRecovery(&faulty_manager, FastRecovery());
  const int64_t bpe = faulty->batches_per_epoch();
  FaultPlan plan;
  plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                         /*minibatch=*/bpe + bpe / 2, WorkType::kForward, 0.0});
  FaultInjector injector(plan);
  faulty->SetFaultInjector(&injector);
  faulty->TrainEpoch();
  const EpochStats hit = faulty->TrainEpoch();
  EXPECT_EQ(hit.recoveries, 1);
  EXPECT_EQ(injector.faults_fired(), 1);
  ASSERT_EQ(faulty->failures().size(), 1u);
  EXPECT_EQ(faulty->failures()[0].stage, 1);
  ExpectBitwiseEqual(*clean, *faulty);
}

}  // namespace
}  // namespace pipedream
