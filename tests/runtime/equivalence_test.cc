// Semantic equivalence tests: each distributed schedule is compared against a single-threaded
// oracle implementing the update rule the paper ascribes to it (§2.2, §3.3). These are the
// strongest correctness statements in the test suite — the threaded pipeline must produce
// *the same weights* as the mathematical recurrence, not merely similar loss curves.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/data/loader.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/runtime/pipeline_trainer.h"
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

// Max abs difference between two models' parameters.
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

// Both models' parameters must be byte-identical.
void ExpectParamsBitwiseEqual(const Sequential& a, const Sequential& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i]->value.SameShape(pb[i]->value)) << pa[i]->name;
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          static_cast<size_t>(pa[i]->value.SizeBytes())),
              0)
        << pa[i]->name;
  }
}

// Sequential per-minibatch SGD over batches [0, count).
void SequentialSgd(Sequential* model, const Dataset& data, int64_t count) {
  MinibatchLoader loader(&data, kBatch, kSeed);
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  const auto params = model->Params();
  Tensor x;
  Tensor y;
  Tensor grad;
  for (int64_t b = 0; b < count; ++b) {
    loader.BatchAt(b, &x, &y);
    model->ZeroGrads();
    ModelContext ctx;
    const Tensor out = model->Forward(x, &ctx, true);
    loss.Compute(out, y, &grad);
    model->Backward(grad, &ctx);
    sgd.Step(params);
  }
}

TEST(EquivalenceTest, SingleWorkerPipelineEqualsSequentialSgd) {
  const Dataset data = TestData();
  auto reference = TestModel();
  const int64_t bpe = data.size() / kBatch;
  SequentialSgd(reference.get(), data, 2 * bpe);

  auto model = TestModel();
  const auto plan = MakeDataParallelPlan(static_cast<int>(model->size()), 1);
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed);
  trainer.TrainEpoch();
  trainer.TrainEpoch();

  EXPECT_LT(ParamDiff(*trainer.AssembleModel(), *reference), 1e-6);
}

TEST(EquivalenceTest, ModelParallelEqualsSequentialSgd) {
  // Non-pipelined model parallelism admits one minibatch at a time, so every stage's
  // forward and backward use fully current weights: exactly sequential SGD.
  const Dataset data = TestData();
  auto reference = TestModel();
  const int64_t bpe = data.size() / kBatch;
  SequentialSgd(reference.get(), data, 2 * bpe);

  auto model = TestModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kModelParallel;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
  trainer.TrainEpoch();
  trainer.TrainEpoch();

  EXPECT_LT(ParamDiff(*trainer.AssembleModel(), *reference), 1e-6);
}

TEST(EquivalenceTest, GPipeEqualsAggregatedSgd) {
  // GPipe with m microbatches per flush == sequential SGD stepping once per m minibatches
  // with the mean gradient, all computed at the same weights.
  const int m = 4;
  const Dataset data = TestData();
  const int64_t bpe = data.size() / kBatch;  // 12, divisible by 4

  auto reference = TestModel();
  {
    MinibatchLoader loader(&data, kBatch, kSeed);
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    const auto params = reference->Params();
    Tensor x;
    Tensor y;
    Tensor grad;
    for (int64_t b = 0; b < 2 * bpe; ++b) {
      if (b % m == 0) {
        reference->ZeroGrads();
      }
      loader.BatchAt(b, &x, &y);
      ModelContext ctx;
      const Tensor out = reference->Forward(x, &ctx, true);
      loss.Compute(out, y, &grad);
      reference->Backward(grad, &ctx);
      if (b % m == m - 1) {
        for (Parameter* p : params) {
          Scale(&p->grad, 1.0f / m);
        }
        sgd.Step(params);
      }
    }
  }

  auto model = TestModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kGPipe;
  options.gpipe_microbatches = m;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
  trainer.TrainEpoch();
  trainer.TrainEpoch();

  EXPECT_LT(ParamDiff(*trainer.AssembleModel(), *reference), 1e-5);
}

TEST(EquivalenceTest, DataParallelBspEqualsLargeBatchSgd) {
  // BSP DP with m replicas == sequential SGD stepping once per m minibatches with the mean
  // gradient (the global minibatch is m x G).
  const int m = 2;
  const Dataset data = TestData();
  const int64_t bpe = data.size() / kBatch;

  auto reference = TestModel();
  {
    MinibatchLoader loader(&data, kBatch, kSeed);
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    const auto params = reference->Params();
    Tensor x;
    Tensor y;
    Tensor grad;
    for (int64_t b = 0; b < 2 * bpe; ++b) {
      if (b % m == 0) {
        reference->ZeroGrads();
      }
      loader.BatchAt(b, &x, &y);
      ModelContext ctx;
      const Tensor out = reference->Forward(x, &ctx, true);
      loss.Compute(out, y, &grad);
      reference->Backward(grad, &ctx);
      if (b % m == m - 1) {
        for (Parameter* p : params) {
          Scale(&p->grad, 1.0f / m);
        }
        sgd.Step(params);
      }
    }
  }

  auto model = TestModel();
  const auto plan = MakeDataParallelPlan(static_cast<int>(model->size()), m);
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed);
  trainer.TrainEpoch();
  trainer.TrainEpoch();

  EXPECT_LT(ParamDiff(*trainer.AssembleModel(), *reference), 1e-5);
}

// Oracle for 1F1B + weight stashing on a 2-stage straight pipeline (§3.3): stage 0's
// gradient for minibatch b is computed at its weights after max(0, b-1) updates; stage 1's
// at its weights after b updates; updates apply in minibatch order at each stage.
TEST(EquivalenceTest, OneFOneBStashingMatchesDelayedGradientOracle) {
  const Dataset data = TestData();
  const int64_t bpe = data.size() / kBatch;
  const int64_t total = 2 * bpe;
  const size_t split = 2;  // stage 0: Dense+ReLU, stage 1: Dense head

  // --- Oracle ---
  auto oracle = TestModel();
  auto stage0 = oracle->CloneSlice(0, split);
  auto stage1 = oracle->CloneSlice(split, oracle->size());
  Sgd sgd0(kLr);
  Sgd sgd1(kLr);
  SoftmaxCrossEntropy loss;
  // History of stage-0 weights by version (version v = after v updates).
  std::vector<std::vector<Tensor>> history0;
  auto snapshot0 = [&] {
    std::vector<Tensor> snap;
    for (Parameter* p : stage0->Params()) {
      snap.push_back(p->value);
    }
    history0.push_back(std::move(snap));
  };
  snapshot0();  // version 0

  MinibatchLoader loader(&data, kBatch, kSeed);
  Tensor x;
  Tensor y;
  Tensor grad;
  for (int64_t b = 0; b < total; ++b) {
    loader.BatchAt(b, &x, &y);
    // Stage 0 forward at version epoch_start + max(0, local-1): the pipeline drains at each
    // epoch boundary and refills, so the first two forwards of an epoch see all of the
    // previous epoch's updates.
    const int64_t epoch_start = (b / bpe) * bpe;
    const auto fwd_version =
        static_cast<size_t>(epoch_start + std::max<int64_t>(0, b - epoch_start - 1));
    std::vector<Tensor> current0;
    for (Parameter* p : stage0->Params()) {
      current0.push_back(p->value);
    }
    {
      const auto& snap = history0[fwd_version];
      const auto params = stage0->Params();
      for (size_t i = 0; i < params.size(); ++i) {
        params[i]->value = snap[i];
      }
    }
    ModelContext c0;
    const Tensor mid = stage0->Forward(x, &c0, true);
    // Stage 1 runs at its current weights (version b).
    ModelContext c1;
    const Tensor out = stage1->Forward(mid, &c1, true);
    loss.Compute(out, y, &grad);
    stage1->ZeroGrads();
    const Tensor grad_mid = stage1->Backward(grad, &c1);
    // Stage 0 backward with the SAME stashed weights still swapped in.
    stage0->ZeroGrads();
    stage0->Backward(grad_mid, &c0);
    // Restore stage 0's current weights, then apply both updates.
    {
      const auto params = stage0->Params();
      for (size_t i = 0; i < params.size(); ++i) {
        params[i]->value = current0[i];
      }
    }
    sgd0.Step(stage0->Params());
    sgd1.Step(stage1->Params());
    snapshot0();  // version b+1
  }

  // --- Threaded runtime ---
  auto model = TestModel();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {static_cast<int>(split)});
  Sgd sgd(kLr);
  PipelineTrainerOptions options;
  options.weight_mode = WeightMode::kStashing;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
  trainer.TrainEpoch();
  trainer.TrainEpoch();

  const auto trained = trainer.AssembleModel();
  const auto trained_params = trained->Params();
  const auto oracle0 = stage0->Params();
  const auto oracle1 = stage1->Params();
  size_t cursor = 0;
  double worst = 0.0;
  for (Parameter* p : oracle0) {
    worst = std::max(worst, MaxAbsDiff(trained_params[cursor++]->value, p->value));
  }
  for (Parameter* p : oracle1) {
    worst = std::max(worst, MaxAbsDiff(trained_params[cursor++]->value, p->value));
  }
  EXPECT_LT(worst, 1e-5);
}

TEST(EquivalenceTest, PipelineTrainingIsDeterministic) {
  const Dataset data = TestData();
  auto run = [&] {
    auto model = TestModel();
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 2});
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed);
    trainer.TrainEpoch();
    trainer.TrainEpoch();
    return trainer.AssembleModel();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(ParamDiff(*a, *b), 0.0);
}

TEST(EquivalenceTest, NaiveAndStashingDifferOnceWeightsMove) {
  // With a 3-stage pipeline and a non-trivial learning rate, naive pipelining computes
  // gradients with mismatched weight versions; the resulting weights must diverge from the
  // stashing run (this is the defect §3.3 exists to fix). The middle stage must hold a
  // weight matrix whose *backward* uses its own weights (dx = dy W^T), so a two-hidden-layer
  // MLP is the smallest model where the mismatch is visible.
  const Dataset data = TestData();
  auto run = [&](WeightMode mode) {
    Rng rng(kSeed);
    const auto model = BuildMlpClassifier(4, {8, 8}, 3, &rng);  // fc0 relu fc1 relu head
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2, 4});
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    PipelineTrainerOptions options;
    options.weight_mode = mode;
    PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
    trainer.TrainEpoch();
    return trainer.AssembleModel();
  };
  const auto naive = run(WeightMode::kNaive);
  const auto stashed = run(WeightMode::kStashing);
  EXPECT_GT(ParamDiff(*naive, *stashed), 1e-6);
}

TEST(EquivalenceTest, VerticalSyncDeterministicAndDistinctFromStashing) {
  const Dataset data = TestData();
  auto run = [&](WeightMode mode) {
    auto model = TestModel();
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 2});
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    PipelineTrainerOptions options;
    options.weight_mode = mode;
    PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
    trainer.TrainEpoch();
    trainer.TrainEpoch();
    return trainer.AssembleModel();
  };
  const auto v1 = run(WeightMode::kVerticalSync);
  const auto v2 = run(WeightMode::kVerticalSync);
  EXPECT_EQ(ParamDiff(*v1, *v2), 0.0);
  const auto stashed = run(WeightMode::kStashing);
  // Vertical sync pins older versions on later stages, so the trajectories differ.
  EXPECT_GT(ParamDiff(*v1, *stashed), 1e-7);
}

TEST(EquivalenceTest, RecomputeActivationsIsExactlyEquivalent) {
  // Activation recomputation re-runs the forward under the stashed weights, so for
  // deterministic layers the gradients — and therefore the entire training trajectory —
  // must be bit-identical to the stash-everything run.
  const Dataset data = TestData();
  auto run = [&](bool recompute) {
    auto model = TestModel();
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 2});
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    PipelineTrainerOptions options;
    options.recompute_activations = recompute;
    PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
    trainer.TrainEpoch();
    trainer.TrainEpoch();
    return trainer.AssembleModel();
  };
  const auto normal = run(false);
  const auto recomputed = run(true);
  EXPECT_EQ(ParamDiff(*normal, *recomputed), 0.0);
}

TEST(EquivalenceTest, RecomputeShrinksActivationStash) {
  const Dataset data = TestData();
  auto peak_stage0 = [&](bool recompute) {
    Rng rng(kSeed);
    const auto model = BuildMlpClassifier(4, {16, 16, 16}, 3, &rng);
    const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2, 4});
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    PipelineTrainerOptions options;
    options.recompute_activations = recompute;
    PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
    trainer.TrainEpoch();
    return trainer.StagePeakActivationBytes(0);
  };
  // Stage 0 of a 3-stage pipeline holds up to 3 in-flight stashes; recomputation keeps only
  // the (much smaller) stage inputs plus one transient context.
  EXPECT_LT(peak_stage0(true), peak_stage0(false));
}

TEST(EquivalenceTest, GradientAccumulationEqualsAggregatedSgd) {
  // accumulation_steps = 3 on one worker == sequential SGD stepping every 3 minibatches with
  // the mean gradient.
  const int steps = 3;
  const Dataset data = TestData();
  const int64_t bpe = data.size() / kBatch;  // 12, divisible by 3

  auto reference = TestModel();
  {
    MinibatchLoader loader(&data, kBatch, kSeed);
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    const auto params = reference->Params();
    Tensor x;
    Tensor y;
    Tensor grad;
    for (int64_t b = 0; b < 2 * bpe; ++b) {
      if (b % steps == 0) {
        reference->ZeroGrads();
      }
      loader.BatchAt(b, &x, &y);
      ModelContext ctx;
      const Tensor out = reference->Forward(x, &ctx, true);
      loss.Compute(out, y, &grad);
      reference->Backward(grad, &ctx);
      if (b % steps == steps - 1) {
        for (Parameter* p : params) {
          Scale(&p->grad, 1.0f / steps);
        }
        sgd.Step(params);
      }
    }
  }

  auto model = TestModel();
  const auto plan = MakeDataParallelPlan(static_cast<int>(model->size()), 1);
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainerOptions options;
  options.accumulation_steps = steps;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
  trainer.TrainEpoch();
  trainer.TrainEpoch();

  EXPECT_LT(ParamDiff(*trainer.AssembleModel(), *reference), 1e-6);
}

TEST(EquivalenceTest, ResnetStylePipelineMatchesSequential) {
  // The residual wrapper must behave identically whether the model runs monolithically or
  // split across pipeline stages (model-parallel schedule => exact sequential semantics).
  const Dataset data = MakeSyntheticImages(3, 1, 6, 24, 0.5, 31);
  auto build = [] {
    Rng rng(kSeed);
    return BuildMiniResnet(1, 6, 3, /*blocks=*/2, &rng);
  };
  auto reference = build();
  {
    MinibatchLoader loader(&data, 8, kSeed);
    SoftmaxCrossEntropy loss;
    Sgd sgd(kLr);
    const auto params = reference->Params();
    Tensor x;
    Tensor y;
    Tensor grad;
    for (int64_t b = 0; b < loader.batches_per_epoch(); ++b) {
      loader.BatchAt(b, &x, &y);
      reference->ZeroGrads();
      ModelContext ctx;
      const Tensor out = reference->Forward(x, &ctx, true);
      loss.Compute(out, y, &grad);
      reference->Backward(grad, &ctx);
      sgd.Step(params);
    }
  }
  auto model = build();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {3, 6});
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kModelParallel;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 8, kSeed, options);
  trainer.TrainEpoch();
  ExpectParamsBitwiseEqual(*trainer.AssembleModel(), *reference);
}

TEST(EquivalenceTest, ConvInputStageWithoutInputGradientMatchesSequential) {
  // The input stage runs the parameters-only backward (its first conv computes no data
  // gradient); the model-parallel schedule's weights must still equal, byte for byte, a
  // sequential reference whose backward computes every input gradient.
  const Dataset data = MakeSyntheticImages(3, 2, 8, 32, 0.5, 17);
  auto build = [] {
    Rng rng(kSeed);
    return BuildMiniVgg(2, 8, 3, &rng);
  };
  auto reference = build();
  const int64_t bpe = data.size() / kBatch;
  SequentialSgd(reference.get(), data, 2 * bpe);

  auto model = build();
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {4, 7});
  SoftmaxCrossEntropy loss;
  Sgd sgd(kLr);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kModelParallel;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, kBatch, kSeed, options);
  trainer.TrainEpoch();
  trainer.TrainEpoch();
  ExpectParamsBitwiseEqual(*trainer.AssembleModel(), *reference);
}

}  // namespace
}  // namespace pipedream
