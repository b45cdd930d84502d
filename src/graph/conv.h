// 2-D convolution (NCHW) with stride and zero padding. Lowers onto the tensor library's
// im2col + blocked-GEMM kernels (ops.h); the original direct-loop implementation survives
// as the ref:: oracle behind PIPEDREAM_NAIVE_KERNELS=1.
#ifndef SRC_GRAPH_CONV_H_
#define SRC_GRAPH_CONV_H_

#include <memory>
#include <string>

#include "src/graph/layer.h"
#include "src/tensor/ops.h"

namespace pipedream {

class Conv2D : public Layer {
 public:
  Conv2D(std::string name, int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, Rng* rng);

  const std::string& name() const override { return name_; }
  Tensor Forward(const Tensor& input, LayerContext* ctx, bool training) override;
  Tensor Backward(const Tensor& grad_output, LayerContext* ctx) override;
  // dW and db only: no data-gradient convolution.
  void BackwardParams(const Tensor& grad_output, LayerContext* ctx) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;

  // Spatial output size for a given input size.
  int64_t OutSize(int64_t in_size) const { return (in_size + 2 * padding_ - kernel_) / stride_ + 1; }

 private:
  Conv2D(const Conv2D&) = default;

  // Backward with the input gradient written to *grad_input, or not computed when null.
  void RunBackward(const Tensor& grad_output, LayerContext* ctx, Tensor* grad_input);

  // Kernel geometry for an input batch (validates channel count).
  ConvGeometry GeometryFor(const Tensor& input) const;

  std::string name_;
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_;
  int64_t stride_;
  int64_t padding_;
  Parameter weight_;  // [OC, IC, K, K]
  Parameter bias_;    // [OC]
};

}  // namespace pipedream

#endif  // SRC_GRAPH_CONV_H_
