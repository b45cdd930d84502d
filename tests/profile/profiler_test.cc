#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/graph/activation.h"
#include "src/graph/dense.h"
#include "src/graph/models.h"
#include "src/profile/profiler.h"

namespace pipedream {
namespace {

TEST(ProfilerTest, RecordsAllLayers) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(16, {32, 24}, 4, &rng);
  Tensor sample({8, 16});
  const auto profile = ProfileModel(*model, sample, "mlp");
  EXPECT_EQ(profile.num_layers(), static_cast<int>(model->size()));
  EXPECT_EQ(profile.minibatch_size, 8);
  EXPECT_EQ(profile.model_name, "mlp");
}

TEST(ProfilerTest, SizesAreExact) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(16, {32}, 4, &rng);
  Tensor sample({8, 16});
  const auto profile = ProfileModel(*model, sample, "mlp");
  // Layer 0 is fc0 (16 -> 32): activations 8x32 floats, params (16*32 + 32) floats.
  EXPECT_EQ(profile.layers[0].activation_bytes, 8 * 32 * 4);
  EXPECT_EQ(profile.layers[0].param_bytes, (16 * 32 + 32) * 4);
  // Layer 1 is relu: stateless.
  EXPECT_EQ(profile.layers[1].param_bytes, 0);
  // Head (32 -> 4).
  EXPECT_EQ(profile.layers[2].activation_bytes, 8 * 4 * 4);
}

TEST(ProfilerTest, TimesArePositive) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(64, {128}, 8, &rng);
  Tensor sample({16, 64});
  const auto profile = ProfileModel(*model, sample, "mlp");
  for (const auto& layer : profile.layers) {
    EXPECT_GT(layer.fwd_seconds, 0.0) << layer.name;
    EXPECT_GT(layer.bwd_seconds, 0.0) << layer.name;
  }
}

// Layer 0 sits on the input stage, which computes no input gradient: the parameterless
// layers below the first parameterized one run no backward and are priced at 0.
TEST(ProfilerTest, InputStageBackwardStopsAtFirstParameterizedLayer) {
  Rng rng(1);
  Sequential model;
  model.Add(std::make_unique<Activation>("relu_in", ActivationKind::kRelu));
  model.Add(std::make_unique<Dense>("fc0", 64, 128, &rng));
  model.Add(std::make_unique<Activation>("relu0", ActivationKind::kRelu));
  model.Add(std::make_unique<Dense>("head", 128, 8, &rng));
  Tensor sample({16, 64});
  const auto profile = ProfileModel(model, sample, "m");
  EXPECT_EQ(profile.layers[0].bwd_seconds, 0.0);
  EXPECT_GT(profile.layers[0].fwd_seconds, 0.0);
  EXPECT_GT(profile.layers[1].bwd_seconds, 0.0);
  EXPECT_GT(profile.layers[2].bwd_seconds, 0.0);
}

TEST(ProfilerTest, BiggerLayerTakesLonger) {
  Rng rng(1);
  Sequential model;
  model.Add(std::make_unique<Dense>("small", 64, 16, &rng));
  model.Add(std::make_unique<Dense>("big", 16, 2048, &rng));
  model.Add(std::make_unique<Dense>("head", 2048, 4, &rng));
  Tensor sample({32, 64});
  ProfilerOptions options;
  options.measure_batches = 8;
  const auto profile = ProfileModel(model, sample, "m", options);
  EXPECT_GT(profile.layers[1].total_seconds(), profile.layers[0].total_seconds());
}

}  // namespace
}  // namespace pipedream
