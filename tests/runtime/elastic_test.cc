// Elastic re-planning tests: worker death triggers re-partition over the live
// heterogeneous worker set and state migration through a plan-tagged checkpoint; worker
// joins re-plan without losing completed epochs; the post-resume loss stream is bitwise
// what a fresh trainer launched from the migrated checkpoint produces (the epoch grid).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>
#include <unistd.h>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/elastic.h"
#include "src/runtime/fault.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

RecoveryOptions FastRecovery() {
  RecoveryOptions options;
  options.heartbeat_timeout_ms = 1000;
  options.progress_timeout_ms = 400;
  options.worker_tick_ms = 5;
  options.watchdog_poll_ms = 2;
  return options;
}

// Synthetic profile matching a real model's layer count; planner-side quantities only.
// Five equal heavy layers then a cheap two-layer tail, negligible bytes. The heavy block
// cannot be split evenly across 2 or 3 straight stages (5 is odd and not divisible by 3),
// so on a skewed cluster replicating the fast workers over [0,5) STRICTLY beats every
// straight plan — the test can rely on stage 0 being the replicated fast group and the
// slow worker holding the tail alone.
ModelProfile ComputeBoundProfile(int layers) {
  ModelProfile profile;
  profile.model_name = "elastic-test";
  profile.minibatch_size = 4;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = i < 5 ? 0.010 : 0.004;
    layer.bwd_seconds = 2.0 * layer.fwd_seconds;
    layer.activation_bytes = 1 << 10;
    layer.param_bytes = 1 << 10;
    profile.layers.push_back(layer);
  }
  return profile;
}

// Heavy parameters make replication (weight sync) expensive, so plans stay straight and a
// membership change MOVES stage boundaries — exercising the layer-range restore.
ModelProfile SyncBoundProfile(int layers) {
  ModelProfile profile = ComputeBoundProfile(layers);
  for (LayerProfile& layer : profile.layers) {
    layer.param_bytes = 64 << 20;
  }
  return profile;
}

class ElasticTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pd_elastic_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

void ExpectModelsBitwiseEqual(const Sequential& a, const Sequential& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(pa[i]->value, pb[i]->value), 0.0) << pa[i]->name;
  }
}

TEST_F(ElasticTest, KillTriggersReplanMigrateResumeBitwise) {
  // 4-worker skewed cluster {1,1,1,0.5}: the initial plan replicates the three fast
  // workers and gives the slow one a short tail stage. Killing fast worker 1 mid-epoch-1
  // ejects it (inner degraded recovery finishes the epoch), then the elastic layer
  // re-plans over {0,2,3} at the epoch-2 boundary and migrates through the checkpoint.
  const Dataset data = MakeGaussianMixture(3, 6, 32, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);  // 5 layers
  const auto profile = ComputeBoundProfile(static_cast<int>(model->size()));
  const std::vector<WorkerSpec> cluster = {{1.0, 0}, {1.0, 0}, {1.0, 0}, {0.5, 0}};

  CheckpointManager manager(dir_.string());
  ElasticOptions options;
  options.recovery = FastRecovery();
  ElasticTrainer elastic(*model, profile, &loss, sgd, &data, /*batch_size=*/4, /*seed=*/5,
                         cluster, &manager, options);

  const int64_t epoch_length = elastic.epoch_length();
  EXPECT_EQ(epoch_length % 12, 0);  // lcm(1..4) pins the universal round
  ASSERT_GE(elastic.plan().num_stages(), 2);
  ASSERT_EQ(elastic.plan().stage(0).replicas, 3);  // fast workers replicated
  EXPECT_EQ(elastic.plan().stage(0).workers, (std::vector<int>{0, 1, 2}));

  // Kill worker 1 = stage 0 replica 1; replica 1 owns minibatches == 1 (mod 3).
  FaultPlan fault_plan;
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/1,
                               /*minibatch=*/epoch_length + 1, WorkType::kForward, 0.0});
  FaultInjector injector(fault_plan);
  elastic.SetFaultInjector(&injector);

  elastic.TrainEpoch();  // epoch 0: clean, checkpointed
  elastic.TrainEpoch();  // epoch 1: kill -> degraded ejection inside the inner trainer
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_EQ(elastic.live_workers(), 3);  // the death was harvested
  EXPECT_FALSE(elastic.worker_alive(1));
  EXPECT_EQ(elastic.replans(), 0);  // re-plan is deferred to the next boundary

  const EpochStats e2 = elastic.TrainEpoch();  // epoch 2: re-plan, migrate, resume
  EXPECT_EQ(elastic.replans(), 1);
  EXPECT_EQ(elastic.plan_generation(), 1);
  EXPECT_GT(elastic.last_replan_seconds(), 0.0);
  EXPECT_EQ(elastic.plan().total_workers(), 3);
  for (const StageAssignment& stage : elastic.plan().stages()) {
    for (int worker : stage.workers) {
      EXPECT_NE(worker, 1);  // the dead worker is out of every stage
    }
  }
  const EpochStats e3 = elastic.TrainEpoch();
  EXPECT_EQ(e2.minibatches, epoch_length);
  EXPECT_EQ(e3.minibatches, epoch_length);
  EXPECT_EQ(elastic.epochs_completed(), 4);

  // Bitwise acceptance: a fresh trainer under the re-planned config, restored from the
  // migrated checkpoint and pinned to the same epoch grid, reproduces epochs 2..3 exactly.
  Rng rng2(2);
  const auto model2 = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng2);
  PipelineTrainerOptions topts;
  topts.start_epoch = 2;
  topts.epoch_length = epoch_length;
  PipelineTrainer reference(*model2, elastic.plan(), &loss, sgd, &data, 4, /*seed=*/5,
                            topts);
  ASSERT_TRUE(reference.LoadCheckpoint(manager, 1).ok());
  const EpochStats r2 = reference.TrainEpoch();
  const EpochStats r3 = reference.TrainEpoch();
  EXPECT_EQ(e2.mean_loss, r2.mean_loss);  // bitwise, not approximate
  EXPECT_EQ(e3.mean_loss, r3.mean_loss);
  ExpectModelsBitwiseEqual(*elastic.AssembleModel(), *reference.AssembleModel());
}

TEST_F(ElasticTest, JoinMovesStageBoundariesAndMigratesByLayerRange) {
  // Straight 2-worker pipeline (heavy weights suppress replication); a third worker joins
  // at the epoch-2 boundary. The 3-worker plan has different stage boundaries, so the
  // migration MUST restore by layer range — stage->stage restore would scramble weights.
  const Dataset data = MakeGaussianMixture(3, 6, 32, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(3);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);  // 7 layers
  const auto profile = SyncBoundProfile(static_cast<int>(model->size()));
  const std::vector<WorkerSpec> cluster = {{1.0, 0}, {1.0, 0}};

  CheckpointManager manager(dir_.string());
  ElasticOptions options;
  options.recovery = FastRecovery();
  options.epoch_length = 24;  // divisible by lcm(1..3): leaves room for the join
  ElasticTrainer elastic(*model, profile, &loss, sgd, &data, /*batch_size=*/4, /*seed=*/5,
                         cluster, &manager, options);
  ASSERT_TRUE(elastic.plan().IsStraight());
  const std::vector<StageAssignment> old_stages = elastic.plan().stages();

  elastic.TrainEpoch();
  elastic.TrainEpoch();
  EXPECT_EQ(elastic.AddWorker({1.0, 0}), 2);
  const EpochStats e2 = elastic.TrainEpoch();  // epoch 2: re-plan over 3 workers
  EXPECT_EQ(elastic.replans(), 1);
  EXPECT_EQ(elastic.live_workers(), 3);
  EXPECT_EQ(elastic.plan().total_workers(), 3);
  ASSERT_TRUE(elastic.plan().IsStraight());
  EXPECT_NE(elastic.plan().stages().size(), old_stages.size());  // boundaries moved
  const EpochStats e3 = elastic.TrainEpoch();

  Rng rng2(3);
  const auto model2 = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng2);
  PipelineTrainerOptions topts;
  topts.start_epoch = 2;
  topts.epoch_length = elastic.epoch_length();
  PipelineTrainer reference(*model2, elastic.plan(), &loss, sgd, &data, 4, /*seed=*/5,
                            topts);
  ASSERT_TRUE(reference.LoadCheckpoint(manager, 1).ok());  // layer-range remapped load
  const EpochStats r2 = reference.TrainEpoch();
  const EpochStats r3 = reference.TrainEpoch();
  EXPECT_EQ(e2.mean_loss, r2.mean_loss);
  EXPECT_EQ(e3.mean_loss, r3.mean_loss);
  ExpectModelsBitwiseEqual(*elastic.AssembleModel(), *reference.AssembleModel());
}

TEST_F(ElasticTest, SecondKillDuringDegradedGenerationReplansAgain) {
  // Double fault: worker 1 dies in epoch 1 (re-plan at epoch 2), then worker 2 dies in
  // epoch 3 while the cluster is already re-planned once. Each death gets its own
  // generation; training never loses an epoch.
  const Dataset data = MakeGaussianMixture(3, 6, 32, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);
  const auto profile = ComputeBoundProfile(static_cast<int>(model->size()));
  const std::vector<WorkerSpec> cluster = {{1.0, 0}, {1.0, 0}, {1.0, 0}, {0.5, 0}};

  CheckpointManager manager(dir_.string());
  ElasticOptions options;
  options.recovery = FastRecovery();
  ElasticTrainer elastic(*model, profile, &loss, sgd, &data, 4, /*seed=*/5, cluster,
                         &manager, options);
  const int64_t epoch_length = elastic.epoch_length();
  ASSERT_EQ(elastic.plan().stage(0).replicas, 3);

  FaultPlan first_plan;
  // Generation 0: stage 0 = workers {0,1,2}, replica 1 = worker 1, rotation mod 3.
  first_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/1,
                               /*minibatch=*/epoch_length + 1, WorkType::kForward, 0.0});
  FaultInjector first_kill(first_plan);
  elastic.SetFaultInjector(&first_kill);

  elastic.TrainEpoch();  // epoch 0: clean
  elastic.TrainEpoch();  // epoch 1: worker 1 dies
  elastic.TrainEpoch();  // epoch 2: re-plan over {0, 2, 3}
  EXPECT_EQ(first_kill.faults_fired(), 1);
  EXPECT_EQ(elastic.replans(), 1);
  EXPECT_EQ(elastic.live_workers(), 3);

  // Aim the second kill at the re-planned generation's replicated stage: whatever layout
  // the partitioner chose, replica 1 of that stage is a live fast worker.
  int victim_stage = -1;
  int victim_worker = -1;
  int rotation = 0;
  for (int s = 0; s < elastic.plan().num_stages(); ++s) {
    if (elastic.plan().stage(s).replicas >= 2) {
      victim_stage = s;
      rotation = elastic.plan().stage(s).replicas;
      victim_worker = elastic.plan().stage(s).workers[1];
      break;
    }
  }
  ASSERT_GE(victim_stage, 0) << "re-planned generation has no replicated stage";
  // Replica r owns minibatches == r (mod replicas); land one rotation into epoch 3.
  const int64_t base = 3 * epoch_length;
  const int64_t offset = ((1 - base) % rotation + rotation) % rotation;
  FaultPlan second_plan;
  second_plan.events.push_back({FaultKind::kKillWorker, victim_stage, /*replica=*/1,
                                /*minibatch=*/base + offset + rotation, WorkType::kForward,
                                0.0});
  FaultInjector second_kill(second_plan);
  elastic.SetFaultInjector(&second_kill);

  EpochStats last{};
  for (int epoch = 3; epoch < 6; ++epoch) {
    last = elastic.TrainEpoch();
    EXPECT_EQ(last.minibatches, epoch_length) << "lost minibatches in epoch " << epoch;
    EXPECT_TRUE(std::isfinite(last.mean_loss));
  }
  EXPECT_EQ(second_kill.faults_fired(), 1);
  EXPECT_EQ(elastic.replans(), 2);
  EXPECT_EQ(elastic.plan_generation(), 2);
  EXPECT_EQ(elastic.live_workers(), 2);
  EXPECT_FALSE(elastic.worker_alive(1));
  EXPECT_FALSE(elastic.worker_alive(victim_worker));
  EXPECT_EQ(elastic.epochs_completed(), 6);
}

TEST_F(ElasticTest, ReviveWorkerReturnsToFullStrength) {
  const Dataset data = MakeGaussianMixture(3, 6, 32, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);
  const auto profile = ComputeBoundProfile(static_cast<int>(model->size()));
  const std::vector<WorkerSpec> cluster = {{1.0, 0}, {1.0, 0}, {1.0, 0}, {0.5, 0}};

  CheckpointManager manager(dir_.string());
  ElasticOptions options;
  options.recovery = FastRecovery();
  ElasticTrainer elastic(*model, profile, &loss, sgd, &data, 4, /*seed=*/5, cluster,
                         &manager, options);
  const int64_t epoch_length = elastic.epoch_length();

  FaultPlan fault_plan;
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/1,
                               /*minibatch=*/epoch_length + 1, WorkType::kForward, 0.0});
  FaultInjector injector(fault_plan);
  elastic.SetFaultInjector(&injector);

  elastic.TrainEpoch();
  elastic.TrainEpoch();  // kill -> worker 1 marked dead
  elastic.TrainEpoch();  // re-plan over 3 workers
  EXPECT_EQ(elastic.live_workers(), 3);
  elastic.ReviveWorker(1);  // the respawned worker comes back
  const EpochStats stats = elastic.TrainEpoch();  // re-plan back to 4 workers
  EXPECT_EQ(elastic.live_workers(), 4);
  EXPECT_EQ(elastic.replans(), 2);
  EXPECT_EQ(elastic.plan().total_workers(), 4);
  EXPECT_EQ(stats.minibatches, epoch_length);
  EXPECT_TRUE(std::isfinite(stats.mean_loss));
}

TEST_F(ElasticTest, RejoinProbationReadmitsEjectedReplica) {
  // Inner-trainer rejoin: a replica ejected into degraded mode is re-admitted to its
  // stage's rotation after `rejoin_probation_epochs` consecutive clean epochs, restoring
  // the original 1F1B-RR rotation without any re-plan.
  const Dataset data = MakeGaussianMixture(3, 6, 32, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.1);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16}, 3, &rng);
  const auto plan = MakePlanFromShape({{2, 2}, {1, 1}});
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 12, /*seed=*/5);
  CheckpointManager manager(dir_.string());
  RecoveryOptions recovery = FastRecovery();
  recovery.rejoin_probation_epochs = 2;
  trainer.EnableRecovery(&manager, recovery);
  const int64_t bpe = trainer.batches_per_epoch();

  FaultPlan fault_plan;
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/1,
                               /*minibatch=*/bpe + 1, WorkType::kForward, 0.0});
  FaultInjector injector(fault_plan);
  trainer.SetFaultInjector(&injector);

  trainer.TrainEpoch();  // epoch 0: clean
  trainer.TrainEpoch();  // epoch 1: kill -> ejection
  EXPECT_EQ(trainer.ActiveReplicas(0), 1);
  trainer.TrainEpoch();  // epoch 2: probation 1/2
  EXPECT_EQ(trainer.ActiveReplicas(0), 1);  // still sitting out
  trainer.TrainEpoch();  // epoch 3: probation served -> rejoined before this epoch ran
  EXPECT_EQ(trainer.ActiveReplicas(0), 2);

  EpochStats last{};
  for (int e = 0; e < 3; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_EQ(trainer.ActiveReplicas(0), 2);
  EXPECT_EQ(last.minibatches, bpe);
  EXPECT_TRUE(std::isfinite(last.mean_loss));
}

TEST_F(ElasticTest, AddWorkerRejectsIncompatibleEpochGrid) {
  // The auto epoch length for a 2-worker cluster need not host a 3rd worker's rotation;
  // AddWorker must refuse rather than wedge the next generation's epoch math.
  const Dataset data = MakeGaussianMixture(3, 6, 20, 0.3, 17);  // 60 samples -> bpe 15
  // auto epoch = 14 (truncated to a multiple of lcm(1..2)=2); 14 is not divisible by 6.
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(3);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);
  const auto profile = SyncBoundProfile(static_cast<int>(model->size()));
  CheckpointManager manager(dir_.string());
  ElasticOptions options;
  options.recovery = FastRecovery();
  ElasticTrainer elastic(*model, profile, &loss, sgd, &data, 4, /*seed=*/5,
                         {{1.0, 0}, {1.0, 0}}, &manager, options);
  EXPECT_EQ(elastic.epoch_length() % 2, 0);
  EXPECT_NE(elastic.epoch_length() % 6, 0);
  EXPECT_DEATH(elastic.AddWorker({1.0, 0}), "cannot host");
}

TEST_F(ElasticTest, RejectsEveryScheduleButOneFOneBAtConstruction) {
  // Re-planning re-partitions on the epoch grid under per-minibatch 1F1B semantics; every
  // other schedule is refused up front, by name, instead of failing deep inside a run.
  const Dataset data = MakeGaussianMixture(3, 6, 24, 0.3, 17);  // 72 samples -> bpe 18
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(3);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);
  const auto profile = ComputeBoundProfile(static_cast<int>(model->size()));
  CheckpointManager manager(dir_.string());
  for (const ScheduleKind kind : {ScheduleKind::kGPipe, ScheduleKind::kModelParallel,
                                  ScheduleKind::kPipeDreamFlush, ScheduleKind::kInterleaved}) {
    SCOPED_TRACE(ScheduleKindName(kind));
    ElasticOptions options;
    options.recovery = FastRecovery();
    options.trainer.schedule = kind;
    options.trainer.gpipe_microbatches = 4;
    options.trainer.interleave_chunks = 2;
    EXPECT_DEATH(ElasticTrainer(*model, profile, &loss, sgd, &data, 4, /*seed=*/5,
                                {{1.0, 0}, {1.0, 0}, {1.0, 0}}, &manager, options),
                 std::string("elastic re-planning requires a 1F1B schedule, not ") +
                     ScheduleKindName(kind));
  }
}

}  // namespace
}  // namespace pipedream
