#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/dense.h"
#include "src/graph/models.h"
#include "src/graph/sequential.h"
#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

TEST(SequentialTest, ForwardThroughAllLayers) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8, 6}, 3, &rng);
  EXPECT_EQ(model->size(), 5u);  // 3 dense + 2 relu
  ModelContext ctx;
  Tensor in({2, 4});
  const Tensor out = model->Forward(in, &ctx, true);
  EXPECT_EQ(out.dim(0), 2);
  EXPECT_EQ(out.dim(1), 3);
  EXPECT_EQ(ctx.per_layer.size(), 5u);
}

TEST(SequentialTest, ParamsInLayerOrder) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
  const auto params = model->Params();
  ASSERT_EQ(params.size(), 4u);  // two dense layers x (W, b)
  EXPECT_EQ(params[0]->name, "fc0.weight");
  EXPECT_EQ(params[1]->name, "fc0.bias");
  EXPECT_EQ(params[2]->name, "head.weight");
  EXPECT_EQ(params[3]->name, "head.bias");
}

TEST(SequentialTest, CloneSliceEquivalentToFullForward) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8, 6}, 3, &rng);
  // Split into two stages and run them back to back.
  const auto stage0 = model->CloneSlice(0, 2);
  const auto stage1 = model->CloneSlice(2, model->size());
  Rng in_rng(2);
  Tensor in({3, 4});
  InitGaussian(&in, 1.0f, &in_rng);

  ModelContext full_ctx;
  const Tensor want = model->Forward(in, &full_ctx, false);

  ModelContext c0;
  ModelContext c1;
  const Tensor mid = stage0->Forward(in, &c0, false);
  const Tensor got = stage1->Forward(mid, &c1, false);
  EXPECT_LT(MaxAbsDiff(got, want), 1e-6);
}

TEST(SequentialTest, BackwardChainsThroughSlices) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
  const auto stage0 = model->CloneSlice(0, 1);
  const auto stage1 = model->CloneSlice(1, model->size());
  Rng in_rng(2);
  Tensor in({2, 4});
  InitGaussian(&in, 1.0f, &in_rng);

  // Full model gradient.
  model->ZeroGrads();
  ModelContext full_ctx;
  const Tensor out = model->Forward(in, &full_ctx, true);
  Tensor grad(out.shape());
  grad.Fill(0.1f);
  model->Backward(grad, &full_ctx);

  // Staged gradient.
  stage0->ZeroGrads();
  stage1->ZeroGrads();
  ModelContext c0;
  ModelContext c1;
  const Tensor mid = stage0->Forward(in, &c0, true);
  stage1->Forward(mid, &c1, true);
  const Tensor grad_mid = stage1->Backward(grad, &c1);
  stage0->Backward(grad_mid, &c0);

  // Parameter gradients must agree between the monolithic and staged runs.
  const auto full_params = model->Params();
  const auto p0 = stage0->Params();
  const auto p1 = stage1->Params();
  ASSERT_EQ(full_params.size(), p0.size() + p1.size());
  for (size_t i = 0; i < p0.size(); ++i) {
    EXPECT_LT(MaxAbsDiff(full_params[i]->grad, p0[i]->grad), 1e-6) << full_params[i]->name;
  }
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_LT(MaxAbsDiff(full_params[p0.size() + i]->grad, p1[i]->grad), 1e-6);
  }
}

TEST(SequentialTest, ParamBytesSumsLayers) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
  EXPECT_EQ(model->ParamBytes(), ((4 * 8 + 8) + (8 * 3 + 3)) * 4);
}

TEST(SequentialTest, CloneProducesIdenticalOutputs) {
  Rng rng(1);
  const auto model = BuildMiniVgg(1, 8, 3, &rng);
  const auto clone = model->Clone();
  Rng in_rng(5);
  Tensor in({2, 1, 8, 8});
  InitGaussian(&in, 1.0f, &in_rng);
  ModelContext c1;
  ModelContext c2;
  const Tensor a = model->Forward(in, &c1, false);
  const Tensor b = clone->Forward(in, &c2, false);
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0);
}

// An identity layer that counts the backward calls it receives; with `trainable` it owns
// one parameter, so Sequential::BackwardParams treats it as a parameterized layer.
class SpyLayer : public Layer {
 public:
  SpyLayer(std::string name, bool trainable) : name_(std::move(name)), trainable_(trainable) {
    param_.name = name_ + ".p";
    param_.value = Tensor({1});
    param_.ZeroGrad();
  }

  const std::string& name() const override { return name_; }
  Tensor Forward(const Tensor& input, LayerContext* ctx, bool training) override {
    return input;
  }
  Tensor Backward(const Tensor& grad_output, LayerContext* ctx) override {
    ++backward_calls;
    return grad_output;
  }
  void BackwardParams(const Tensor& grad_output, LayerContext* ctx) override {
    ++backward_params_calls;
  }
  std::vector<Parameter*> Params() override {
    return trainable_ ? std::vector<Parameter*>{&param_} : std::vector<Parameter*>{};
  }
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<SpyLayer>(name_, trainable_);
  }

  int backward_calls = 0;
  int backward_params_calls = 0;

 private:
  std::string name_;
  bool trainable_;
  Parameter param_;
};

// Runs a forward of a ones input and then BackwardParams with a ones gradient.
void RunBackwardParams(const Sequential& model) {
  Tensor in({2, 4});
  in.Fill(1.0f);
  ModelContext ctx;
  const Tensor out = model.Forward(in, &ctx, true);
  Tensor grad(out.shape());
  grad.Fill(1.0f);
  model.BackwardParams(grad, &ctx);
}

TEST(SequentialTest, BackwardParamsSkipsLayersBelowFirstParameterizedLayer) {
  Rng rng(1);
  Sequential model;
  auto spy = std::make_unique<SpyLayer>("below", /*trainable=*/false);
  SpyLayer* below = spy.get();
  model.Add(std::move(spy));
  model.Add(std::make_unique<Dense>("fc", 4, 3, &rng));
  RunBackwardParams(model);
  EXPECT_EQ(below->backward_calls, 0);
  EXPECT_EQ(below->backward_params_calls, 0);
  // The dense layer still accumulated its gradients.
  EXPECT_GT(Norm(model.Params()[0]->grad), 0.0);
}

TEST(SequentialTest, BackwardParamsRunsFirstParameterizedLayerParamsOnly) {
  Sequential model;
  std::vector<SpyLayer*> spies;
  for (const auto& [name, trainable] :
       std::vector<std::pair<std::string, bool>>{{"in", false}, {"first", true}, {"top", true}}) {
    auto spy = std::make_unique<SpyLayer>(name, trainable);
    spies.push_back(spy.get());
    model.Add(std::move(spy));
  }
  RunBackwardParams(model);
  EXPECT_EQ(spies[2]->backward_calls, 1);  // above the first parameterized layer: full
  EXPECT_EQ(spies[2]->backward_params_calls, 0);
  EXPECT_EQ(spies[1]->backward_calls, 0);
  EXPECT_EQ(spies[1]->backward_params_calls, 1);
  EXPECT_EQ(spies[0]->backward_calls + spies[0]->backward_params_calls, 0);
}

TEST(SequentialTest, BackwardParamsOnParameterlessSliceRunsNothing) {
  Sequential model;
  std::vector<SpyLayer*> spies;
  for (const char* name : {"a", "b"}) {
    auto spy = std::make_unique<SpyLayer>(name, /*trainable=*/false);
    spies.push_back(spy.get());
    model.Add(std::move(spy));
  }
  RunBackwardParams(model);
  for (const SpyLayer* spy : spies) {
    EXPECT_EQ(spy->backward_calls + spy->backward_params_calls, 0) << spy->name();
  }
}

TEST(ModelContextTest, TracksStashBytes) {
  Rng rng(1);
  const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
  ModelContext ctx;
  Tensor in({2, 4});
  model->Forward(in, &ctx, true);
  EXPECT_GT(ctx.SizeBytes(), 0);
}

}  // namespace
}  // namespace pipedream
