#include "src/graph/pool.h"

#include <utility>

#include "src/tensor/ops.h"

namespace pipedream {

Tensor MaxPool2D::Forward(const Tensor& input, LayerContext* ctx, bool training) {
  Tensor out;
  Tensor argmax;
  MaxPool2dForward(input, window_, stride_, &out, &argmax);
  ctx->Clear();
  ctx->saved.push_back(std::move(argmax));
  ctx->saved.push_back(Tensor({4}, {static_cast<float>(input.dim(0)),
                                    static_cast<float>(input.dim(1)),
                                    static_cast<float>(input.dim(2)),
                                    static_cast<float>(input.dim(3))}));
  return out;
}

Tensor MaxPool2D::Backward(const Tensor& grad_output, LayerContext* ctx) {
  PD_CHECK_EQ(ctx->saved.size(), 2u) << name_ << ": backward without matching forward";
  const Tensor& argmax = ctx->saved[0];
  const Tensor& dims = ctx->saved[1];
  Tensor grad_input;
  MaxPool2dBackward(grad_output, argmax, window_, stride_,
                    {static_cast<int64_t>(dims[0]), static_cast<int64_t>(dims[1]),
                     static_cast<int64_t>(dims[2]), static_cast<int64_t>(dims[3])},
                    &grad_input);
  ctx->Clear();
  return grad_input;
}

Tensor AvgPool2D::Forward(const Tensor& input, LayerContext* ctx, bool training) {
  PD_CHECK_EQ(input.rank(), 4u);
  const int64_t batch = input.dim(0);
  const int64_t channels = input.dim(1);
  const int64_t in_h = input.dim(2);
  const int64_t in_w = input.dim(3);
  const int64_t out_h = (in_h - window_) / stride_ + 1;
  const int64_t out_w = (in_w - window_) / stride_ + 1;
  PD_CHECK_GT(out_h, 0);
  PD_CHECK_GT(out_w, 0);

  Tensor out = Tensor::Uninitialized({batch, channels, out_h, out_w});  // fully written below
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          float acc = 0.0f;
          for (int64_t kh = 0; kh < window_; ++kh) {
            for (int64_t kw = 0; kw < window_; ++kw) {
              acc += input.At4(n, c, oh * stride_ + kh, ow * stride_ + kw);
            }
          }
          out.At4(n, c, oh, ow) = acc * inv;
        }
      }
    }
  }
  ctx->Clear();
  ctx->saved.push_back(Tensor({4}, {static_cast<float>(batch), static_cast<float>(channels),
                                    static_cast<float>(in_h), static_cast<float>(in_w)}));
  return out;
}

Tensor AvgPool2D::Backward(const Tensor& grad_output, LayerContext* ctx) {
  PD_CHECK_EQ(ctx->saved.size(), 1u) << name_ << ": backward without matching forward";
  const Tensor& dims = ctx->saved[0];
  Tensor grad_input({static_cast<int64_t>(dims[0]), static_cast<int64_t>(dims[1]),
                     static_cast<int64_t>(dims[2]), static_cast<int64_t>(dims[3])});
  const int64_t batch = grad_output.dim(0);
  const int64_t channels = grad_output.dim(1);
  const int64_t out_h = grad_output.dim(2);
  const int64_t out_w = grad_output.dim(3);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          const float g = grad_output.At4(n, c, oh, ow) * inv;
          for (int64_t kh = 0; kh < window_; ++kh) {
            for (int64_t kw = 0; kw < window_; ++kw) {
              grad_input.At4(n, c, oh * stride_ + kh, ow * stride_ + kw) += g;
            }
          }
        }
      }
    }
  }
  ctx->Clear();
  return grad_input;
}

}  // namespace pipedream
