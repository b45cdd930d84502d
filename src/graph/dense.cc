#include "src/graph/dense.h"

#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {

Dense::Dense(std::string name, int64_t in_features, int64_t out_features, Rng* rng)
    : name_(std::move(name)), in_features_(in_features), out_features_(out_features) {
  weight_.name = name_ + ".weight";
  weight_.value = Tensor({in_features, out_features});
  InitXavier(&weight_.value, in_features, out_features, rng);
  weight_.ZeroGrad();
  bias_.name = name_ + ".bias";
  bias_.value = Tensor({out_features});
  bias_.ZeroGrad();
}

Tensor Dense::Forward(const Tensor& input, LayerContext* ctx, bool training) {
  PD_CHECK_EQ(input.rank(), 2u);
  PD_CHECK_EQ(input.dim(1), in_features_);
  Tensor out;
  MatMul(input, weight_.value, &out);
  AddBiasRows(&out, bias_.value);
  ctx->Clear();
  ctx->saved.push_back(input);  // x, needed for dW = x^T dy.
  return out;
}

Tensor Dense::Backward(const Tensor& grad_output, LayerContext* ctx) {
  BackwardParams(grad_output, ctx);
  // dx = dy W^T
  Tensor grad_input;
  Gemm(grad_output, false, weight_.value, true, 1.0f, 0.0f, &grad_input);
  return grad_input;
}

void Dense::BackwardParams(const Tensor& grad_output, LayerContext* ctx) {
  PD_CHECK_EQ(ctx->saved.size(), 1u) << name_ << ": backward without matching forward";
  const Tensor& input = ctx->saved[0];
  // dW += x^T dy
  Gemm(input, true, grad_output, false, 1.0f, 1.0f, &weight_.grad);
  // db += column sums of dy
  AccumulateColumnSums(grad_output, &bias_.grad);
  ctx->Clear();
}

std::unique_ptr<Layer> Dense::Clone() const { return std::unique_ptr<Layer>(new Dense(*this)); }

}  // namespace pipedream
