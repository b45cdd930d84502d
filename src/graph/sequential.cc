#include "src/graph/sequential.h"

namespace pipedream {

Tensor Sequential::Forward(const Tensor& input, ModelContext* ctx, bool training) const {
  if (ctx->per_layer.size() != layers_.size()) {
    ctx->per_layer.assign(layers_.size(), LayerContext{});
  }
  Tensor current = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    current = layers_[i]->Forward(current, &ctx->per_layer[i], training);
  }
  return current;
}

Tensor Sequential::Backward(const Tensor& grad_output, ModelContext* ctx) const {
  PD_CHECK_EQ(ctx->per_layer.size(), layers_.size())
      << "backward called with a context not produced by this model's forward";
  Tensor current = grad_output;
  for (size_t i = layers_.size(); i > 0; --i) {
    current = layers_[i - 1]->Backward(current, &ctx->per_layer[i - 1]);
  }
  return current;
}

void Sequential::BackwardParams(const Tensor& grad_output, ModelContext* ctx) const {
  PD_CHECK_EQ(ctx->per_layer.size(), layers_.size())
      << "backward called with a context not produced by this model's forward";
  const size_t first = FirstParameterizedLayer();
  if (first == layers_.size()) {
    return;
  }
  Tensor current = grad_output;
  for (size_t i = layers_.size() - 1; i > first; --i) {
    current = layers_[i]->Backward(current, &ctx->per_layer[i]);
  }
  layers_[first]->BackwardParams(current, &ctx->per_layer[first]);
}

size_t Sequential::FirstParameterizedLayer() const {
  size_t first = 0;
  while (first < layers_.size() && layers_[first]->Params().empty()) {
    ++first;
  }
  return first;
}

std::vector<Parameter*> Sequential::Params() const {
  std::vector<Parameter*> params;
  for (const auto& layer : layers_) {
    for (Parameter* p : layer->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

void Sequential::ZeroGrads() const {
  for (const auto& layer : layers_) {
    layer->ZeroGrads();
  }
}

int64_t Sequential::ParamBytes() const {
  int64_t total = 0;
  for (const auto& layer : layers_) {
    total += layer->ParamBytes();
  }
  return total;
}

std::unique_ptr<Sequential> Sequential::Clone() const { return CloneSlice(0, layers_.size()); }

std::unique_ptr<Sequential> Sequential::CloneSlice(size_t begin, size_t end) const {
  PD_CHECK_LE(begin, end);
  PD_CHECK_LE(end, layers_.size());
  auto out = std::make_unique<Sequential>();
  for (size_t i = begin; i < end; ++i) {
    out->Add(layers_[i]->Clone());
  }
  return out;
}

}  // namespace pipedream
