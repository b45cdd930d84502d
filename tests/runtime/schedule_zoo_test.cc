// Schedule-zoo equivalence and memory tests (docs/SCHEDULES.md): PipeDream-Flush must match
// GPipe bitwise (same per-round aggregated update, different intra-round order), interleaved
// virtual stages must match plain 1F1B bitwise (the static op lists are a valid 1F1B
// execution and weight stashing makes the result order-independent), recompute must be a
// pure memory/compute trade with zero numerical effect, and the runtime's measured peak
// memory must stay under the planner's schedule-aware prediction.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/data/loader.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/planner/predictor.h"
#include "src/profile/profiler.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/sim/topology.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

constexpr int64_t kBatch = 8;
constexpr uint64_t kSeed = 42;
constexpr double kLr = 0.05;

Dataset TestData() { return MakeGaussianMixture(3, 4, 32, 0.4, 7); }

std::unique_ptr<Sequential> TestModel() {
  Rng rng(kSeed);
  return BuildMlpClassifier(4, {8}, 3, &rng);  // Dense, ReLU, Dense — 3 layers
}

// A deeper model so interleaving has enough layers for k chunks per worker.
std::unique_ptr<Sequential> DeepModel() {
  Rng rng(kSeed);
  return BuildMlpClassifier(4, {8, 8}, 3, &rng);  // 5 layers
}

double ParamDiff(const Sequential& a, const Sequential& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  EXPECT_EQ(pa.size(), pb.size());
  double worst = 0.0;
  for (size_t i = 0; i < pa.size(); ++i) {
    worst = std::max(worst, MaxAbsDiff(pa[i]->value, pb[i]->value));
  }
  return worst;
}

// Builds a trainer for `make_model`'s architecture under `options`, trains `epochs`, and
// returns the assembled model.
std::unique_ptr<Sequential> RunSchedule(std::unique_ptr<Sequential> (*make_model)(),
                                const PipelinePlan& plan,
                                const PipelineTrainerOptions& options, int epochs) {
  const Dataset data = TestData();
  auto model = make_model();
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
  for (int e = 0; e < epochs; ++e) {
    trainer.TrainEpoch();
  }
  return trainer.AssembleModel();
}

TEST(ScheduleZooTest, FlushMatchesGPipeBitwise) {
  // PipeDream-Flush reorders work *within* a round (1F1B instead of all-F-then-all-B) but
  // commits the identical aggregated gradient at the identical drain barrier, so the two
  // flush-family schedules produce the same weights bit for bit.
  const auto plan = MakeStraightPlan(3, {1, 2});
  PipelineTrainerOptions flush;
  flush.schedule = ScheduleKind::kPipeDreamFlush;
  flush.gpipe_microbatches = 4;
  PipelineTrainerOptions gpipe;
  gpipe.schedule = ScheduleKind::kGPipe;
  gpipe.gpipe_microbatches = 4;
  const auto a = RunSchedule(&TestModel, plan, flush, 2);
  const auto b = RunSchedule(&TestModel, plan, gpipe, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, FlushIsDeterministic) {
  const auto plan = MakeStraightPlan(3, {1, 2});
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kPipeDreamFlush;
  options.gpipe_microbatches = 4;
  const auto a = RunSchedule(&TestModel, plan, options, 2);
  const auto b = RunSchedule(&TestModel, plan, options, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, InterleavedChunksOneMatchesOneFOneBBitwise) {
  // k = 1 interleaving generates exactly the per-stage 1F1B op order, executed by the same
  // one-thread-per-worker runtime: the weights must match plain 1F1B bit for bit.
  const auto plan = MakeStraightPlan(3, {1, 2});
  PipelineTrainerOptions interleaved;
  interleaved.schedule = ScheduleKind::kInterleaved;
  interleaved.interleave_chunks = 1;
  const PipelineTrainerOptions plain;  // default kOneFOneB
  const auto a = RunSchedule(&TestModel, plan, interleaved, 2);
  const auto b = RunSchedule(&TestModel, plan, plain, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, InterleavedMatchesOneFOneBOnSameChunkPlan) {
  // Under weight stashing each stage's update sequence is a deterministic function of the
  // minibatch order alone, so executing the same 4-chunk-stage plan on 2 physical workers
  // (k = 2) instead of 4 changes the timeline but not one bit of the weights.
  const auto plan = MakeStraightPlan(5, {1, 2, 3});  // 4 chunk-stages
  PipelineTrainerOptions interleaved;
  interleaved.schedule = ScheduleKind::kInterleaved;
  interleaved.interleave_chunks = 2;
  const PipelineTrainerOptions plain;
  const auto a = RunSchedule(&DeepModel, plan, interleaved, 2);
  const auto b = RunSchedule(&DeepModel, plan, plain, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, InterleavedIsDeterministic) {
  const auto plan = MakeStraightPlan(5, {1, 2, 3});
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kInterleaved;
  options.interleave_chunks = 2;
  const auto a = RunSchedule(&DeepModel, plan, options, 2);
  const auto b = RunSchedule(&DeepModel, plan, options, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, FlushRecomputeIsExactlyEquivalent) {
  // Recompute re-runs the forward under the same (kNaive, frozen-for-the-round) weights the
  // original forward used, so the regenerated activations are bitwise identical.
  const auto plan = MakeStraightPlan(3, {1, 2});
  PipelineTrainerOptions base;
  base.schedule = ScheduleKind::kPipeDreamFlush;
  base.gpipe_microbatches = 4;
  PipelineTrainerOptions recompute = base;
  recompute.recompute_activations = true;
  const auto a = RunSchedule(&TestModel, plan, base, 2);
  const auto b = RunSchedule(&TestModel, plan, recompute, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, InterleavedRecomputeIsExactlyEquivalent) {
  // Under 1F1B-family schedules recompute replays the forward under the minibatch's
  // *stashed* weight version — the same tensor the original forward consumed.
  const auto plan = MakeStraightPlan(5, {1, 2, 3});
  PipelineTrainerOptions base;
  base.schedule = ScheduleKind::kInterleaved;
  base.interleave_chunks = 2;
  PipelineTrainerOptions recompute = base;
  recompute.recompute_activations = true;
  const auto a = RunSchedule(&DeepModel, plan, base, 2);
  const auto b = RunSchedule(&DeepModel, plan, recompute, 2);
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(ScheduleZooTest, MeasuredPeakMemoryStaysUnderPredictedPeak) {
  // The planner's schedule-aware peak prediction must be an upper bound on what the runtime
  // actually materializes: copy-on-write weight-stash bytes plus live activation contexts,
  // summed over each physical worker's stages. (The prediction additionally budgets the
  // live weights and gradient buffers, so the headroom is at least 2w per stage; the exact
  // three-way measured == sim == predicted comparison for the kNaive/2BW/recompute cells
  // lives in bench/2bw_memory.cpp's schedule frontier.)
  const Dataset data = TestData();
  auto model = DeepModel();
  MinibatchLoader loader(&data, kBatch, kSeed);
  Tensor x;
  Tensor y;
  loader.BatchAt(0, &x, &y);
  const ModelProfile profile = ProfileModel(*model, x, "schedule_zoo");
  const auto topology = HardwareTopology::Flat(4, 1e9);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 2, 3});

  struct Cell {
    ScheduleKind schedule;
    WeightMode mode;
    bool recompute;
    int chunks;
  };
  const Cell cells[] = {
      {ScheduleKind::kOneFOneB, WeightMode::kStashing, false, 1},
      {ScheduleKind::kOneFOneB, WeightMode::kDoubleBuffered, false, 1},
      {ScheduleKind::kOneFOneB, WeightMode::kStashing, true, 1},
      {ScheduleKind::kPipeDreamFlush, WeightMode::kNaive, false, 1},
      {ScheduleKind::kInterleaved, WeightMode::kStashing, false, 2},
  };
  for (const Cell& cell : cells) {
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    PipelineTrainerOptions options;
    options.schedule = cell.schedule;
    options.weight_mode = cell.mode;
    options.recompute_activations = cell.recompute;
    options.interleave_chunks = cell.chunks;
    options.gpipe_microbatches = 4;
    if (cell.mode == WeightMode::kDoubleBuffered) {
      options.accumulation_steps = plan.num_stages();
    }
    auto cell_model = DeepModel();
    PipelineTrainer trainer(*cell_model, plan, &loss, sgd, &data, kBatch, kSeed, options);
    trainer.TrainEpoch();

    ScheduleSpec spec;
    spec.kind = cell.schedule;
    spec.flush_microbatches = 4;
    spec.interleave_chunks = cell.chunks;
    spec.recompute = cell.recompute;
    const PlanPrediction prediction = PredictPlan(profile, plan, topology, spec);

    const int workers = plan.num_stages() / cell.chunks;
    int64_t measured_max = 0;
    for (int w = 0; w < workers; ++w) {
      int64_t worker_bytes = 0;
      for (int s = w; s < plan.num_stages(); s += workers) {
        worker_bytes += trainer.StagePeakMaterializedStashBytes(s) +
                        trainer.StagePeakActivationBytes(s);
      }
      measured_max = std::max(measured_max, worker_bytes);
    }
    EXPECT_GT(measured_max, 0);
    EXPECT_LE(measured_max, prediction.max_worker_memory_bytes)
        << "schedule=" << ScheduleKindName(cell.schedule)
        << " mode=" << WeightModeName(cell.mode) << " recompute=" << cell.recompute;
  }
}

}  // namespace
}  // namespace pipedream
