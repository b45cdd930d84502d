#include "src/graph/activation.h"

#include <cmath>

#include "src/tensor/ops.h"

namespace pipedream {

const char* ActivationKindName(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kRelu:
      return "relu";
    case ActivationKind::kTanh:
      return "tanh";
    case ActivationKind::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

Tensor Activation::Forward(const Tensor& input, LayerContext* ctx, bool training) {
  Tensor out;
  if (kind_ == ActivationKind::kRelu) {
    Relu(input, &out);
  } else {
    out = input;
    float* p = out.data();
    const int64_t n = out.numel();
    if (kind_ == ActivationKind::kTanh) {
      for (int64_t i = 0; i < n; ++i) {
        p[i] = std::tanh(p[i]);
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        p[i] = 1.0f / (1.0f + std::exp(-p[i]));
      }
    }
  }
  ctx->Clear();
  ctx->saved.push_back(out);  // All three derivatives are expressible from the output.
  return out;
}

Tensor Activation::Backward(const Tensor& grad_output, LayerContext* ctx) {
  PD_CHECK_EQ(ctx->saved.size(), 1u) << name_ << ": backward without matching forward";
  const Tensor& out = ctx->saved[0];
  PD_CHECK(grad_output.SameShape(out));
  Tensor grad_input;
  if (kind_ == ActivationKind::kRelu) {
    ReluBackward(out, grad_output, &grad_input);
  } else {
    grad_input = grad_output;
    float* pg = grad_input.data();
    const float* po = out.data();
    const int64_t n = out.numel();
    if (kind_ == ActivationKind::kTanh) {
      for (int64_t i = 0; i < n; ++i) {
        pg[i] *= 1.0f - po[i] * po[i];
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        pg[i] *= po[i] * (1.0f - po[i]);
      }
    }
  }
  ctx->Clear();
  return grad_input;
}

}  // namespace pipedream
