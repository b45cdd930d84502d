#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/dense.h"
#include "src/graph/grad_check.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/adam.h"
#include "src/optim/lars.h"
#include "src/optim/lr_schedule.h"
#include "src/optim/sgd.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

// Minimizes f(w) = ||w - target||^2 with each optimizer; all should converge.
void DriveQuadratic(Optimizer* opt, int steps, double expect_below) {
  Parameter p;
  p.name = "w";
  p.value = Tensor({4}, {5, -3, 2, 8});
  const Tensor target({4}, {1, 1, 1, 1});
  for (int i = 0; i < steps; ++i) {
    p.ZeroGrad();
    for (int64_t j = 0; j < 4; ++j) {
      p.grad[j] = 2.0f * (p.value[j] - target[j]);
    }
    opt->Step({&p});
  }
  Tensor diff;
  Sub(p.value, target, &diff);
  EXPECT_LT(Norm(diff), expect_below);
}

// Steps an optimizer on a parameter whose gradient is nonzero once and exactly zero after,
// long enough for its state to decay below FLT_MIN, where the state must be stored as
// exactly 0 rather than stay subnormal.
void ExpectStateFlushedToZero(Optimizer* opt, int zero_grad_steps) {
  Parameter p;
  p.name = "w";
  p.value = Tensor({4}, {0.5f, -1.0f, 2.0f, -0.25f});
  p.grad = Tensor({4}, {1.0f, -2.0f, 0.5f, 3.0f});
  opt->Step({&p});
  p.grad.SetZero();
  for (int i = 0; i < zero_grad_steps; ++i) {
    opt->Step({&p});
  }
  const std::vector<const Tensor*> state = opt->State();
  ASSERT_FALSE(state.empty());
  for (const Tensor* t : state) {
    for (int64_t j = 0; j < t->numel(); ++j) {
      EXPECT_EQ((*t)[j], 0.0f) << "entry " << j;
    }
  }
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Sgd sgd(0.1);
  DriveQuadratic(&sgd, 100, 1e-3);
}

TEST(SgdTest, MomentumConverges) {
  Sgd sgd(0.05, 0.9);
  DriveQuadratic(&sgd, 200, 1e-3);
}

TEST(SgdTest, SingleStepMatchesFormula) {
  Sgd sgd(0.5);
  Parameter p;
  p.value = Tensor({1}, {2.0f});
  p.grad = Tensor({1}, {1.0f});
  sgd.Step({&p});
  EXPECT_NEAR(p.value[0], 1.5f, 1e-7);
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Sgd sgd(0.1, 0.0, 0.01);
  Parameter p;
  p.value = Tensor({1}, {10.0f});
  p.grad = Tensor({1}, {0.0f});
  sgd.Step({&p});
  EXPECT_NEAR(p.value[0], 10.0f - 0.1f * 0.01f * 10.0f, 1e-6);
}

TEST(SgdTest, DeadUnitVelocityIsFlushedToZero) {
  Sgd sgd(0.01, 0.9);
  ExpectStateFlushedToZero(&sgd, 1000);  // 0.9^n * 3 passes FLT_MIN near n = 850
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam adam(0.1);
  DriveQuadratic(&adam, 300, 1e-2);
}

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Adam adam(0.01);
  Parameter p;
  p.value = Tensor({1}, {0.0f});
  p.grad = Tensor({1}, {123.0f});
  adam.Step({&p});
  EXPECT_NEAR(p.value[0], -0.01f, 1e-4);
}

TEST(AdamTest, DeadUnitMomentsAreFlushedToZero) {
  Adam adam(0.001);
  // v decays by 0.999 per step from 0.009: it passes FLT_MIN near n = 83,000.
  ExpectStateFlushedToZero(&adam, 100000);
}

TEST(LarsTest, ConvergesOnQuadratic) {
  Lars lars(10.0, 0.9, 0.0, 0.01);
  DriveQuadratic(&lars, 400, 0.2);
}

TEST(LarsTest, LocalRateScalesWithWeightNorm) {
  // Two parameters with the same gradient but different magnitudes should receive updates
  // proportional to their norms (the layer-wise adaptation).
  Lars lars(1.0, 0.0, 0.0, 0.1);
  Parameter small;
  small.value = Tensor({1}, {1.0f});
  small.grad = Tensor({1}, {1.0f});
  Parameter big;
  big.value = Tensor({1}, {100.0f});
  big.grad = Tensor({1}, {1.0f});
  lars.Step({&small, &big});
  const double small_step = 1.0 - small.value[0];
  const double big_step = 100.0 - big.value[0];
  EXPECT_NEAR(big_step / small_step, 100.0, 1.0);
}

TEST(LarsTest, DeadUnitVelocityIsFlushedToZero) {
  // Without weight decay a zero gradient leaves only the 0.9 momentum decay.
  Lars lars(0.1, 0.9, 0.0);
  ExpectStateFlushedToZero(&lars, 1000);
}

TEST(OptimizerTest, CloneFreshHasEmptyState) {
  Sgd sgd(0.1, 0.9);
  Parameter p;
  p.value = Tensor({1}, {1.0f});
  p.grad = Tensor({1}, {1.0f});
  sgd.Step({&p});
  auto clone = sgd.CloneFresh();
  EXPECT_EQ(clone->learning_rate(), 0.1);
  // The clone starts with zero momentum: its first step is plain SGD.
  Parameter q;
  q.value = Tensor({1}, {1.0f});
  q.grad = Tensor({1}, {1.0f});
  clone->Step({&q});
  EXPECT_NEAR(q.value[0], 0.9f, 1e-6);
}

// --------------------------------------------------------------------------------------
// Bits of the vectorized update loops. The library compiles them for the host ISA with
// contraction off; each must equal, byte for byte, the plain scalar loop below (this file
// is compiled with -ffp-contract=off too, tests/CMakeLists.txt). Lengths are not multiples
// of any vector width, and the gradients mix in exact zeros and 1e-30 entries so the state
// runs into the subnormal flush.

constexpr int64_t kBitLengths[] = {1, 7, 37, 1027};
constexpr int kBitSteps = 200;

float Flush(float v) { return std::fabs(v) < FLT_MIN ? 0.0f : v; }

Tensor MixedGradient(int64_t n, Rng* rng) {
  Tensor g({n});
  InitGaussian(&g, 1.0f, rng);
  for (int64_t j = 0; j < n; ++j) {
    const uint64_t pick = rng->UniformInt(8);
    if (pick == 0) {
      g[j] = 0.0f;
    } else if (pick == 1) {
      g[j] = g[j] < 0.0f ? -1e-30f : 1e-30f;
    }
  }
  return g;
}

// One scalar reference step for parameter `i`: `value` is its expected value (updated in
// place), `grad` its gradient, `step` the 1-based step number.
using ScalarStep =
    std::function<void(size_t i, int step, const Tensor& grad, std::vector<float>* value)>;

void ExpectStepsMatchScalarLoop(Optimizer* opt, const ScalarStep& reference) {
  Rng rng(29);
  std::vector<Parameter> params(std::size(kBitLengths));
  std::vector<std::vector<float>> want(params.size());
  std::vector<Parameter*> ptrs;
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].name = "p" + std::to_string(i);
    params[i].value = Tensor({kBitLengths[i]});
    InitGaussian(&params[i].value, 1.0f, &rng);
    want[i].assign(params[i].value.data(), params[i].value.data() + kBitLengths[i]);
    ptrs.push_back(&params[i]);
  }
  for (int step = 1; step <= kBitSteps; ++step) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].grad = MixedGradient(kBitLengths[i], &rng);
    }
    opt->Step(ptrs);
    for (size_t i = 0; i < params.size(); ++i) {
      reference(i, step, params[i].grad, &want[i]);
      ASSERT_EQ(std::memcmp(params[i].value.data(), want[i].data(),
                            want[i].size() * sizeof(float)),
                0)
          << params[i].name << " (" << kBitLengths[i] << " floats) after step " << step;
    }
  }
}

TEST(OptimizerBitsTest, SgdMatchesScalarLoop) {
  // The optimizers narrow their double hyperparameters the same way.
  const float lr = static_cast<float>(0.05);
  const float wd = static_cast<float>(1e-3);
  Sgd plain(0.05, 0.0, 1e-3);
  ExpectStepsMatchScalarLoop(&plain, [&](size_t, int, const Tensor& g, std::vector<float>* w) {
    for (size_t j = 0; j < w->size(); ++j) {
      (*w)[j] -= lr * (g[static_cast<int64_t>(j)] + wd * (*w)[j]);
    }
  });
  const float mu = static_cast<float>(0.9);
  Sgd momentum(0.05, 0.9, 1e-3);
  std::vector<std::vector<float>> vel(std::size(kBitLengths));
  ExpectStepsMatchScalarLoop(&momentum, [&](size_t i, int, const Tensor& g,
                                            std::vector<float>* w) {
    vel[i].resize(w->size(), 0.0f);
    for (size_t j = 0; j < w->size(); ++j) {
      vel[i][j] = Flush(mu * vel[i][j] + g[static_cast<int64_t>(j)] + wd * (*w)[j]);
      (*w)[j] -= lr * vel[i][j];
    }
  });
}

TEST(OptimizerBitsTest, AdamMatchesScalarLoop) {
  const double base_lr = 0.01;
  const double beta1 = 0.9;
  const double beta2 = 0.999;
  Adam adam(base_lr, beta1, beta2, 1e-8);
  std::vector<std::vector<float>> m(std::size(kBitLengths));
  std::vector<std::vector<float>> v(std::size(kBitLengths));
  ExpectStepsMatchScalarLoop(&adam, [&](size_t i, int step, const Tensor& g,
                                        std::vector<float>* w) {
    const double bias1 = 1.0 - std::pow(beta1, static_cast<double>(step));
    const double bias2 = 1.0 - std::pow(beta2, static_cast<double>(step));
    const float lr = static_cast<float>(base_lr * std::sqrt(bias2) / bias1);
    const float b1 = static_cast<float>(beta1);
    const float b2 = static_cast<float>(beta2);
    const float eps = static_cast<float>(1e-8);
    m[i].resize(w->size(), 0.0f);
    v[i].resize(w->size(), 0.0f);
    for (size_t j = 0; j < w->size(); ++j) {
      const float gj = g[static_cast<int64_t>(j)];
      m[i][j] = Flush(b1 * m[i][j] + (1.0f - b1) * gj);
      v[i][j] = Flush(b2 * v[i][j] + (1.0f - b2) * gj * gj);
      (*w)[j] -= lr * m[i][j] / (std::sqrt(v[i][j]) + eps);
    }
  });
}

TEST(OptimizerBitsTest, LarsMatchesScalarLoop) {
  const double base_lr = 0.05;
  const double wd = 1e-4;
  const double trust = 0.001;
  Lars lars(base_lr, 0.9, wd, trust);
  std::vector<std::vector<float>> vel(std::size(kBitLengths));
  ExpectStepsMatchScalarLoop(&lars, [&](size_t i, int, const Tensor& g,
                                        std::vector<float>* w) {
    // The norms come from the same library reduction the optimizer calls.
    Tensor current({static_cast<int64_t>(w->size())});
    std::copy(w->begin(), w->end(), current.data());
    const double w_norm = Norm(current);
    const double g_norm = Norm(g);
    double local_lr = base_lr;
    if (w_norm > 0.0 && g_norm > 0.0) {
      local_lr = base_lr * trust * w_norm / (g_norm + wd * w_norm);
    }
    const float lr = static_cast<float>(local_lr);
    const float mu = static_cast<float>(0.9);
    const float wdf = static_cast<float>(wd);
    vel[i].resize(w->size(), 0.0f);
    for (size_t j = 0; j < w->size(); ++j) {
      vel[i][j] = Flush(mu * vel[i][j] + lr * (g[static_cast<int64_t>(j)] + wdf * (*w)[j]));
      (*w)[j] -= vel[i][j];
    }
  });
}

TEST(LrScheduleTest, ConstantLr) {
  ConstantLr lr(0.5);
  EXPECT_EQ(lr.LearningRate(0), 0.5);
  EXPECT_EQ(lr.LearningRate(1000000), 0.5);
}

TEST(LrScheduleTest, StepDecay) {
  StepDecayLr lr(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(lr.LearningRate(0), 1.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(99), 1.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(100), 0.1);
  EXPECT_NEAR(lr.LearningRate(250), 0.01, 1e-12);
}

TEST(LrScheduleTest, WarmupRampsLinearly) {
  WarmupLr lr(1.0, 10, std::make_unique<ConstantLr>(1.0), 10.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(0), 0.1);
  EXPECT_NEAR(lr.LearningRate(5), 0.55, 1e-9);
  EXPECT_DOUBLE_EQ(lr.LearningRate(10), 1.0);
  EXPECT_DOUBLE_EQ(lr.LearningRate(100), 1.0);
}

TEST(TrainingTest, SgdTrainsTinyMlpOnSeparableData) {
  // End-to-end sanity: a small MLP fits a linearly separable problem quickly.
  Rng rng(3);
  const auto model = BuildMlpClassifier(2, {8}, 2, &rng);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.5);
  const auto params = model->Params();
  Rng data_rng(4);
  Tensor x({64, 2});
  Tensor y({64});
  for (int64_t i = 0; i < 64; ++i) {
    const double cls = i % 2 == 0 ? 1.0 : -1.0;
    x.At(i, 0) = static_cast<float>(cls + data_rng.Gaussian(0, 0.3));
    x.At(i, 1) = static_cast<float>(-cls + data_rng.Gaussian(0, 0.3));
    y[i] = i % 2 == 0 ? 0.0f : 1.0f;
  }
  double last_loss = 0.0;
  for (int step = 0; step < 60; ++step) {
    model->ZeroGrads();
    ModelContext ctx;
    const Tensor out = model->Forward(x, &ctx, true);
    Tensor grad;
    last_loss = loss.Compute(out, y, &grad);
    model->Backward(grad, &ctx);
    sgd.Step(params);
  }
  EXPECT_LT(last_loss, 0.1);
}

}  // namespace
}  // namespace pipedream
