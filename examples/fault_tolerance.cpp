// Fault tolerance scenario (paper §4): two acts.
//
// Act 1 — checkpointing: every stage dumps its parameters locally at each epoch boundary
// with no global coordination. The example trains a pipeline, "crashes" it mid-run, and
// restarts from the newest epoch for which every stage has a checkpoint.
//
// Act 2 — live failure and automatic recovery: a FaultInjector kills a stage worker
// mid-epoch; the trainer's watchdog detects the death, quiesces the in-flight minibatches,
// restores every stage from the newest complete checkpoint, respawns the worker, and
// replays — all inside a single TrainEpoch call.
//
// Run: ./fault_tolerance
// Set PIPEDREAM_FAULT_PLAN (e.g. "kill:stage=1,mb=40") or PIPEDREAM_FAULT_SEED=<n> to
// override Act 2's scripted failure with your own.
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/fault.h"
#include "src/runtime/pipeline_trainer.h"

using namespace pipedream;

namespace {

// Act 2's fault plan from the environment: PIPEDREAM_FAULT_PLAN takes precedence, else
// PIPEDREAM_FAULT_SEED feeds FaultPlan::Random against `plan`. Empty when neither is set.
FaultPlan FaultPlanFromEnv(const PipelinePlan& plan, int64_t num_minibatches) {
  if (const char* spec = std::getenv("PIPEDREAM_FAULT_PLAN")) {
    Result<FaultPlan> parsed = FaultPlan::Parse(spec);
    PD_CHECK(parsed.ok()) << "PIPEDREAM_FAULT_PLAN: " << parsed.status().ToString();
    return *parsed;
  }
  if (const char* seed_str = std::getenv("PIPEDREAM_FAULT_SEED")) {
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(seed_str, &end, 10);
    PD_CHECK(end != seed_str && *end == '\0')
        << "PIPEDREAM_FAULT_SEED must be an integer, got '" << seed_str << "'";
    return FaultPlan::Random(seed, plan, num_minibatches);
  }
  return FaultPlan();
}

std::unique_ptr<PipelineTrainer> MakeTrainer(const Dataset* train, const Loss* loss) {
  Rng rng(21);
  const auto model = BuildMlpClassifier(8, {24, 16}, 3, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2, 4});
  Sgd sgd(0.1, 0.9);
  return std::make_unique<PipelineTrainer>(*model, plan, loss, sgd, train, /*batch_size=*/16,
                                           /*seed=*/5);
}

}  // namespace

int main() {
  std::printf("== Per-stage checkpointing and restart (paper §4) ==\n\n");

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "pipedream_fault_tolerance_demo";
  std::filesystem::create_directories(dir);
  CheckpointManager manager(dir.string());

  const Dataset all = MakeGaussianMixture(3, 8, 160, 0.3, 13);
  Dataset train;
  Dataset eval;
  SplitDataset(all, 0.8, &train, &eval);
  SoftmaxCrossEntropy loss;

  // --- First life: train 3 epochs, checkpointing after each.
  auto trainer = MakeTrainer(&train, &loss);
  const int num_stages = trainer->plan().num_stages();
  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochStats stats = trainer->TrainEpoch();
    const Status saved = trainer->SaveCheckpoint(&manager, epoch);
    std::printf("epoch %d: loss %.4f, acc %.3f, checkpoint %s\n", epoch, stats.mean_loss,
                trainer->EvaluateAccuracy(eval, 16), saved.ok() ? "saved" : "FAILED");
  }

  // Simulate a crash that interrupts epoch 3's checkpoint: only stage 0 gets written.
  trainer->TrainEpoch();
  {
    // (Reaching into the manager the way a dying process would: write one stage only.)
    auto partial = MakeTrainer(&train, &loss);
    const Status s = manager.SaveStage(0, 3, partial->AssembleModel()->Params());
    std::printf("\n-- simulated crash during epoch 3's checkpoint (only stage 0 written: %s)\n",
                s.ok() ? "ok" : s.ToString().c_str());
  }
  trainer.reset();  // the "crash"

  // --- Second life: find the newest complete checkpoint and resume.
  const int64_t resume_epoch = manager.LatestCompleteEpoch(num_stages, /*max_epoch=*/10);
  std::printf("\nrestart: newest complete checkpoint is epoch %lld (epoch 3 is incomplete)\n",
              static_cast<long long>(resume_epoch));

  auto resumed = MakeTrainer(&train, &loss);
  const Status loaded = resumed->LoadCheckpoint(manager, resume_epoch);
  std::printf("restored all %d stages: %s\n", num_stages, loaded.ToString().c_str());
  std::printf("accuracy after restore: %.3f (matches end of epoch %lld)\n",
              resumed->EvaluateAccuracy(eval, 16), static_cast<long long>(resume_epoch));

  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochStats stats = resumed->TrainEpoch();
    std::printf("resumed epoch %d: loss %.4f, acc %.3f\n", epoch, stats.mean_loss,
                resumed->EvaluateAccuracy(eval, 16));
  }

  // --- Act 2: a worker dies mid-epoch and the trainer recovers on its own.
  std::printf("\n== Live failure: injected kill + automatic recovery ==\n\n");
  const std::filesystem::path dir2 = dir / "live_recovery";
  std::filesystem::create_directories(dir2);
  CheckpointManager live_manager(dir2.string());

  auto live = MakeTrainer(&train, &loss);
  RecoveryOptions recovery;
  recovery.heartbeat_timeout_ms = 1000;
  recovery.progress_timeout_ms = 500;
  recovery.worker_tick_ms = 5;
  live->EnableRecovery(&live_manager, recovery);

  // The environment (PIPEDREAM_FAULT_PLAN / PIPEDREAM_FAULT_SEED) wins; otherwise kill
  // stage 1 in the middle of epoch 1.
  const int64_t bpe = live->batches_per_epoch();
  FaultPlan fault_plan = FaultPlanFromEnv(live->plan(), 3 * bpe);
  if (fault_plan.empty()) {
    fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/1, /*replica=*/0,
                                 /*minibatch=*/bpe + bpe / 2, WorkType::kForward, 0.0});
  }
  std::printf("fault plan: %s\n", fault_plan.ToString().c_str());
  FaultInjector injector(fault_plan);
  live->SetFaultInjector(&injector);

  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochStats stats = live->TrainEpoch();
    std::printf("epoch %d: loss %.4f, %lld minibatches, %d failure(s) survived\n", epoch,
                stats.mean_loss, static_cast<long long>(stats.minibatches),
                stats.failures_detected);
  }
  for (const FailureRecord& failure : live->failures()) {
    std::printf("detected: %s (stage %d, resumed from epoch %lld%s)\n",
                failure.reason.c_str(), failure.stage,
                static_cast<long long>(failure.resumed_epoch),
                failure.degraded ? ", degraded" : "");
  }

  std::filesystem::remove_all(dir);
  std::printf("\ndone — no global coordination was needed for any checkpoint.\n");
  return 0;
}
