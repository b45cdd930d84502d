#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/rng.h"
#include "src/graph/activation.h"
#include "src/graph/conv.h"
#include "src/graph/dense.h"
#include "src/graph/embedding.h"
#include "src/graph/lstm.h"
#include "src/graph/pool.h"
#include "src/graph/shape_ops.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

TEST(DenseTest, OutputShapeAndBias) {
  Rng rng(1);
  Dense layer("fc", 3, 2, &rng);
  // Zero the weights so the output equals the bias.
  layer.Params()[0]->value.SetZero();
  layer.Params()[1]->value = Tensor({2}, {1.5f, -0.5f});
  LayerContext ctx;
  Tensor in({4, 3});
  const Tensor out = layer.Forward(in, &ctx, true);
  ASSERT_EQ(out.dim(0), 4);
  ASSERT_EQ(out.dim(1), 2);
  EXPECT_EQ(out.At(3, 0), 1.5f);
  EXPECT_EQ(out.At(0, 1), -0.5f);
}

TEST(DenseTest, ParamBytes) {
  Rng rng(1);
  Dense layer("fc", 10, 5, &rng);
  EXPECT_EQ(layer.ParamBytes(), (10 * 5 + 5) * 4);
}

TEST(DenseTest, CloneIsIndependentDeepCopy) {
  Rng rng(1);
  Dense layer("fc", 3, 3, &rng);
  auto clone = layer.Clone();
  // Same initial weights...
  EXPECT_EQ(MaxAbsDiff(layer.Params()[0]->value, clone->Params()[0]->value), 0.0);
  // ...but modifying the clone leaves the original untouched.
  clone->Params()[0]->value.Fill(9.0f);
  EXPECT_NE(layer.Params()[0]->value[0], 9.0f);
}

TEST(ActivationTest, ReluClampsNegatives) {
  Activation relu("r", ActivationKind::kRelu);
  LayerContext ctx;
  Tensor in({1, 4}, {-2, -0.5, 0, 3});
  const Tensor out = relu.Forward(in, &ctx, true);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[1], 0.0f);
  EXPECT_EQ(out[2], 0.0f);
  EXPECT_EQ(out[3], 3.0f);
}

TEST(ActivationTest, ReluBackwardMasks) {
  Activation relu("r", ActivationKind::kRelu);
  LayerContext ctx;
  Tensor in({1, 3}, {-1, 2, 3});
  relu.Forward(in, &ctx, true);
  Tensor grad({1, 3}, {10, 10, 10});
  const Tensor gin = relu.Backward(grad, &ctx);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 10.0f);
}

TEST(ActivationTest, ReluMapsNanAndNegativeZeroToPositiveZero) {
  Activation relu("r", ActivationKind::kRelu);
  LayerContext ctx;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor in({1, 4}, {nan, -0.0f, 0.0f, 2.0f});
  const Tensor out = relu.Forward(in, &ctx, true);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i], 0.0f) << i;
    EXPECT_FALSE(std::signbit(out[i])) << i;
  }
  EXPECT_EQ(out[3], 2.0f);
  // The gradient is selected, not multiplied by a mask: where the output is 0 it is 0,
  // even when the incoming gradient is NaN.
  Tensor grad({1, 4}, {nan, 3.0f, 4.0f, 5.0f});
  const Tensor gin = relu.Backward(grad, &ctx);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 0.0f);
  EXPECT_EQ(gin[2], 0.0f);
  EXPECT_EQ(gin[3], 5.0f);
}

TEST(ActivationTest, SigmoidRange) {
  Activation sig("s", ActivationKind::kSigmoid);
  LayerContext ctx;
  Tensor in({1, 3}, {-100, 0, 100});
  const Tensor out = sig.Forward(in, &ctx, true);
  EXPECT_NEAR(out[0], 0.0f, 1e-6);
  EXPECT_NEAR(out[1], 0.5f, 1e-6);
  EXPECT_NEAR(out[2], 1.0f, 1e-6);
}

TEST(Conv2DTest, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2D conv("c", 1, 1, /*kernel=*/1, /*stride=*/1, /*padding=*/0, &rng);
  conv.Params()[0]->value = Tensor({1, 1, 1, 1}, {1.0f});
  conv.Params()[1]->value.SetZero();
  LayerContext ctx;
  Tensor in({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor out = conv.Forward(in, &ctx, true);
  EXPECT_LT(MaxAbsDiff(out, in), 1e-6);
}

TEST(Conv2DTest, OutputDims) {
  Rng rng(1);
  Conv2D conv("c", 3, 8, /*kernel=*/3, /*stride=*/2, /*padding=*/1, &rng);
  LayerContext ctx;
  Tensor in({2, 3, 8, 8});
  const Tensor out = conv.Forward(in, &ctx, true);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 8);
  EXPECT_EQ(out.dim(2), 4);
  EXPECT_EQ(out.dim(3), 4);
}

TEST(MaxPoolTest, SelectsWindowMaxima) {
  MaxPool2D pool("p", 2, 2);
  LayerContext ctx;
  Tensor in({1, 1, 4, 4}, {1, 2, 5, 6,    //
                           3, 4, 7, 8,    //
                           9, 10, 13, 14,  //
                           11, 12, 15, 16});
  const Tensor out = pool.Forward(in, &ctx, true);
  EXPECT_EQ(out.At4(0, 0, 0, 0), 4.0f);
  EXPECT_EQ(out.At4(0, 0, 0, 1), 8.0f);
  EXPECT_EQ(out.At4(0, 0, 1, 0), 12.0f);
  EXPECT_EQ(out.At4(0, 0, 1, 1), 16.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2D pool("p", 2, 2);
  LayerContext ctx;
  Tensor in({1, 1, 2, 2}, {1, 9, 3, 4});
  pool.Forward(in, &ctx, true);
  Tensor grad({1, 1, 1, 1}, {5.0f});
  const Tensor gin = pool.Backward(grad, &ctx);
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(gin[1], 5.0f);  // position of the max
  EXPECT_EQ(gin[2], 0.0f);
}

TEST(MaxPoolTest, AllNegativeInfinityWindowRoutesWithinItself) {
  MaxPool2D pool("p", 2, 2);
  LayerContext ctx;
  const float inf = std::numeric_limits<float>::infinity();
  Tensor in({1, 1, 2, 4}, {1, 2, -inf, -inf,  //
                           3, 4, -inf, -inf});
  const Tensor out = pool.Forward(in, &ctx, true);
  EXPECT_EQ(out.At4(0, 0, 0, 0), 4.0f);
  EXPECT_EQ(out.At4(0, 0, 0, 1), -inf);
  Tensor grad({1, 1, 1, 2}, {5.0f, 7.0f});
  const Tensor gin = pool.Backward(grad, &ctx);
  EXPECT_EQ(gin[5], 5.0f);  // the first window's max
  EXPECT_EQ(gin[2], 7.0f);  // the second window's first element, not element 0
  EXPECT_EQ(gin[0], 0.0f);
  EXPECT_EQ(Sum(gin), 12.0);
}

TEST(MaxPoolTest, BackwardRoutesExactlyPastTwoToThe24Elements) {
  // Four rows of 2^22 + 4 columns hold 2^24 + 16 elements, so a flat index in the last row
  // can be odd and above 2^24, where float has no exact representation.
  const int64_t width = (int64_t{1} << 22) + 4;
  const int64_t col = (int64_t{1} << 22) + 1;  // in the last 4x4 window
  const int64_t idx = 3 * width + col;         // 2^24 + 13
  ASSERT_NE(static_cast<int64_t>(static_cast<float>(idx)), idx);
  MaxPool2D pool("p", 4, 4);
  LayerContext ctx;
  Tensor in({1, 1, 4, width});
  in[idx] = 1.0f;
  const Tensor out = pool.Forward(in, &ctx, true);
  const int64_t ow = col / 4;
  ASSERT_EQ(ow, out.dim(3) - 1);
  EXPECT_EQ(out.At4(0, 0, 0, ow), 1.0f);
  Tensor grad(out.shape());
  grad.At4(0, 0, 0, ow) = 2.0f;
  const Tensor gin = pool.Backward(grad, &ctx);
  EXPECT_EQ(gin[idx], 2.0f);
  EXPECT_EQ(gin[idx - 1], 0.0f);
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten flat("f");
  LayerContext ctx;
  Tensor in({2, 3, 4, 5});
  const Tensor out = flat.Forward(in, &ctx, true);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 60);
  Tensor grad({2, 60});
  const Tensor gin = flat.Backward(grad, &ctx);
  EXPECT_EQ(gin.rank(), 4u);
  EXPECT_EQ(gin.dim(3), 5);
}

TEST(TimeFlattenTest, MergesBatchAndTime) {
  TimeFlatten tf("t");
  LayerContext ctx;
  Tensor in({2, 5, 3});
  const Tensor out = tf.Forward(in, &ctx, true);
  EXPECT_EQ(out.dim(0), 10);
  EXPECT_EQ(out.dim(1), 3);
  Tensor grad({10, 3});
  const Tensor gin = tf.Backward(grad, &ctx);
  EXPECT_EQ(gin.dim(1), 5);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop("d", 0.5f, 7);
  LayerContext ctx;
  Tensor in({1, 100});
  in.Fill(1.0f);
  const Tensor out = drop.Forward(in, &ctx, /*training=*/false);
  EXPECT_EQ(MaxAbsDiff(out, in), 0.0);
}

TEST(DropoutTest, TrainingZeroesAboutRateAndRescales) {
  Dropout drop("d", 0.5f, 7);
  LayerContext ctx;
  Tensor in({1, 10000});
  in.Fill(1.0f);
  const Tensor out = drop.Forward(in, &ctx, /*training=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(out[i], 2.0f, 1e-6);  // survivors scaled by 1/(1-rate)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros), 5000.0, 300.0);
}

TEST(EmbeddingTest, LooksUpRows) {
  Rng rng(1);
  Embedding embed("e", 5, 3, &rng);
  LayerContext ctx;
  Tensor ids({1, 2}, {2, 4});
  const Tensor out = embed.Forward(ids, &ctx, true);
  ASSERT_EQ(out.rank(), 3u);
  const Tensor& table = embed.Params()[0]->value;
  for (int64_t e = 0; e < 3; ++e) {
    EXPECT_EQ(out[e], table.At(2, e));
    EXPECT_EQ(out[3 + e], table.At(4, e));
  }
}

TEST(EmbeddingTest, BackwardScattersIntoTable) {
  Rng rng(1);
  Embedding embed("e", 5, 2, &rng);
  embed.ZeroGrads();
  LayerContext ctx;
  Tensor ids({1, 2}, {1, 1});  // same token twice: gradients accumulate
  embed.Forward(ids, &ctx, true);
  Tensor grad({1, 2, 2});
  grad.Fill(1.0f);
  embed.Backward(grad, &ctx);
  const Tensor& table_grad = embed.Params()[0]->grad;
  EXPECT_EQ(table_grad.At(1, 0), 2.0f);
  EXPECT_EQ(table_grad.At(0, 0), 0.0f);
}

TEST(LstmTest, OutputShape) {
  Rng rng(1);
  Lstm lstm("l", 3, 4, &rng);
  LayerContext ctx;
  Tensor in({2, 6, 3});
  const Tensor out = lstm.Forward(in, &ctx, true);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 6);
  EXPECT_EQ(out.dim(2), 4);
}

TEST(LstmTest, ZeroInputZeroWeightsGivesBoundedOutput) {
  Rng rng(1);
  Lstm lstm("l", 2, 3, &rng);
  LayerContext ctx;
  Tensor in({1, 4, 2});
  const Tensor out = lstm.Forward(in, &ctx, true);
  for (int64_t i = 0; i < out.numel(); ++i) {
    ASSERT_LE(std::abs(out[i]), 1.0f);  // h = o * tanh(c) is bounded by 1
  }
}

TEST(LayerContextTest, SizeBytesCountsStash) {
  Rng rng(1);
  Dense layer("fc", 4, 4, &rng);
  LayerContext ctx;
  Tensor in({8, 4});
  layer.Forward(in, &ctx, true);
  EXPECT_EQ(ctx.SizeBytes(), in.SizeBytes());
  ctx.Clear();
  EXPECT_EQ(ctx.SizeBytes(), 0);
}

}  // namespace
}  // namespace pipedream
