// Fault fuzzing: random seeded fault plans (kills, stalls, drops, delays, corruptions)
// against live pipelines under every schedule kind. The property under test is liveness and
// completeness — with recovery enabled, TrainEpoch must terminate (no deadlocked mailbox
// waits, no wedged all-reduce), lose no minibatches, and produce a finite loss, no matter
// which faults fire or when.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
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

struct Scenario {
  const char* name;
  PipelinePlan plan;
  PipelineTrainerOptions options;
  std::vector<int64_t> hidden = {8};  // BuildMlpClassifier hidden widths
};

PipelineTrainerOptions WithSchedule(ScheduleKind kind) {
  PipelineTrainerOptions options;
  options.schedule = kind;
  options.gpipe_microbatches = 4;
  options.interleave_chunks = 2;
  return options;
}

// BuildMlpClassifier(4, {8}, 3) is 3 layers: Linear, ReLU, Linear; with {8, 8} it is 5.
std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"1f1b_straight", MakeStraightPlan(3, {2}), {}});
  scenarios.push_back({"1f1b_replicated", MakePlanFromShape({{2, 2}, {1, 1}}), {}});
  scenarios.push_back(
      {"gpipe_straight", MakeStraightPlan(3, {2}), WithSchedule(ScheduleKind::kGPipe)});
  scenarios.push_back({"flush_straight", MakeStraightPlan(3, {1, 2}),
                       WithSchedule(ScheduleKind::kPipeDreamFlush)});
  scenarios.push_back({"model_parallel_straight", MakeStraightPlan(3, {2}),
                       WithSchedule(ScheduleKind::kModelParallel)});
  // Four chunk-stages on two workers, each hosting two.
  scenarios.push_back({"interleaved_k2", MakeStraightPlan(5, {1, 2, 4}),
                       WithSchedule(ScheduleKind::kInterleaved), {8, 8}});
  return scenarios;
}

TEST(FaultFuzzTest, RandomPlansNeverDeadlockOrLoseMinibatches) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  RecoveryOptions recovery;
  recovery.heartbeat_timeout_ms = 1000;
  recovery.progress_timeout_ms = 400;
  recovery.worker_tick_ms = 5;
  recovery.watchdog_poll_ms = 2;

  const auto base_dir = std::filesystem::temp_directory_path() /
                        ("pd_fault_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(base_dir);

  int total_fired = 0;
  for (const Scenario& scenario : Scenarios()) {
    for (uint64_t fault_seed = 1; fault_seed <= 6; ++fault_seed) {
      SCOPED_TRACE(std::string(scenario.name) + " fault_seed=" + std::to_string(fault_seed));
      Rng rng(1);
      const auto model = BuildMlpClassifier(4, scenario.hidden, 3, &rng);
      PipelineTrainer trainer(*model, scenario.plan, &loss, sgd, &data, 8, /*seed=*/5,
                              scenario.options);
      const auto ckpt_dir =
          base_dir / (std::string(scenario.name) + "_" + std::to_string(fault_seed));
      std::filesystem::create_directories(ckpt_dir);
      CheckpointManager manager(ckpt_dir.string());
      trainer.EnableRecovery(&manager, recovery);

      // Epochs truncate to a whole number of synchronization rounds.
      const int64_t bpe = trainer.epoch_length();
      FaultInjector injector(FaultPlan::Random(fault_seed, scenario.plan, 2 * bpe,
                                               /*num_faults=*/2, /*max_duration_ms=*/20.0));
      trainer.SetFaultInjector(&injector);

      for (int epoch = 0; epoch < 2; ++epoch) {
        const EpochStats stats = trainer.TrainEpoch();
        EXPECT_EQ(stats.minibatches, bpe) << "lost minibatches in epoch " << epoch;
        EXPECT_TRUE(std::isfinite(stats.mean_loss));
      }
      total_fired += static_cast<int>(injector.faults_fired());
    }
  }
  // The sweep is vacuous if no fault ever fires; Random targets [0, 2*bpe) so most plans hit.
  EXPECT_GT(total_fired, 0);
  std::filesystem::remove_all(base_dir);
}

TEST(FaultFuzzTest, SecondKillDuringRecoveryReplaysBitwise) {
  // Double fault with deterministic ordering: stage 0 dies at minibatch bpe+5, so no input
  // past bpe+4 ever reaches stage 1 before the rollback — the stage-1 kill at bpe+12 can
  // only fire DURING the replay of the first recovery. Nested recovery must roll back
  // again and still converge to the clean run bitwise on the epoch grid.
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.4, 7);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  RecoveryOptions recovery;
  recovery.heartbeat_timeout_ms = 1000;
  recovery.progress_timeout_ms = 400;
  recovery.worker_tick_ms = 5;
  recovery.watchdog_poll_ms = 2;

  const auto ckpt_dir = std::filesystem::temp_directory_path() /
                        ("pd_fault_fuzz_double_" + std::to_string(::getpid()));
  std::filesystem::create_directories(ckpt_dir);

  auto make_trainer = [&]() {
    Rng rng(1);
    const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
    return std::make_unique<PipelineTrainer>(*model, MakeStraightPlan(3, {2}), &loss, sgd,
                                             &data, 8, /*seed=*/5);
  };

  auto clean = make_trainer();
  auto faulty = make_trainer();
  CheckpointManager manager(ckpt_dir.string());
  faulty->EnableRecovery(&manager, recovery);
  const int64_t bpe = faulty->batches_per_epoch();

  FaultPlan fault_plan;
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/0,
                               /*minibatch=*/bpe + 5, WorkType::kForward, 0.0});
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                               /*minibatch=*/bpe + 12, WorkType::kForward, 0.0});
  FaultInjector injector(fault_plan);
  faulty->SetFaultInjector(&injector);

  int64_t recoveries = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    clean->TrainEpoch();
    const EpochStats stats = faulty->TrainEpoch();
    EXPECT_EQ(stats.minibatches, bpe) << "lost minibatches in epoch " << epoch;
    EXPECT_TRUE(std::isfinite(stats.mean_loss));
    recoveries += stats.recoveries;
  }
  EXPECT_EQ(injector.faults_fired(), 2);
  EXPECT_GE(recoveries, 2);  // each kill cost its own rollback

  const auto a = clean->AssembleModel();
  const auto b = faulty->AssembleModel();
  const auto pa = a->Params();
  const auto pb = b->Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0) << pa[i]->name;
  }
  std::filesystem::remove_all(ckpt_dir);
}

}  // namespace
}  // namespace pipedream
