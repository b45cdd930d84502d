#include "src/graph/conv.h"

#include "src/tensor/init.h"
#include "src/tensor/ops.h"

namespace pipedream {

Conv2D::Conv2D(std::string name, int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, Rng* rng)
    : name_(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding) {
  PD_CHECK_GT(stride, 0);
  PD_CHECK_GE(padding, 0);
  weight_.name = name_ + ".weight";
  weight_.value = Tensor({out_channels, in_channels, kernel, kernel});
  InitHe(&weight_.value, in_channels * kernel * kernel, rng);
  weight_.ZeroGrad();
  bias_.name = name_ + ".bias";
  bias_.value = Tensor({out_channels});
  bias_.ZeroGrad();
}

ConvGeometry Conv2D::GeometryFor(const Tensor& input) const {
  PD_CHECK_EQ(input.rank(), 4u);
  PD_CHECK_EQ(input.dim(1), in_channels_);
  ConvGeometry g;
  g.batch = input.dim(0);
  g.in_channels = in_channels_;
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.out_channels = out_channels_;
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  return g;
}

Tensor Conv2D::Forward(const Tensor& input, LayerContext* ctx, bool training) {
  const ConvGeometry g = GeometryFor(input);
  PD_CHECK_GT(g.out_h(), 0);
  PD_CHECK_GT(g.out_w(), 0);
  Tensor out;
  Conv2dForward(input, weight_.value, bias_.value, g, &out);
  ctx->Clear();
  ctx->saved.push_back(input);
  return out;
}

Tensor Conv2D::Backward(const Tensor& grad_output, LayerContext* ctx) {
  Tensor grad_input;
  RunBackward(grad_output, ctx, &grad_input);
  return grad_input;
}

void Conv2D::BackwardParams(const Tensor& grad_output, LayerContext* ctx) {
  RunBackward(grad_output, ctx, /*grad_input=*/nullptr);
}

void Conv2D::RunBackward(const Tensor& grad_output, LayerContext* ctx, Tensor* grad_input) {
  PD_CHECK_EQ(ctx->saved.size(), 1u) << name_ << ": backward without matching forward";
  const Tensor& input = ctx->saved[0];
  const ConvGeometry g = GeometryFor(input);
  Conv2dBackward(input, weight_.value, grad_output, g, &weight_.grad, &bias_.grad,
                 grad_input);
  ctx->Clear();
}

std::unique_ptr<Layer> Conv2D::Clone() const {
  return std::unique_ptr<Layer>(new Conv2D(*this));
}

}  // namespace pipedream
