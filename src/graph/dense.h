// Fully connected layer: y = x W + b, x is [batch, in], W is [in, out], b is [out].
#ifndef SRC_GRAPH_DENSE_H_
#define SRC_GRAPH_DENSE_H_

#include <memory>
#include <string>

#include "src/graph/layer.h"

namespace pipedream {

class Dense : public Layer {
 public:
  // Initializes W with Xavier-uniform and b with zeros using `rng`.
  Dense(std::string name, int64_t in_features, int64_t out_features, Rng* rng);

  const std::string& name() const override { return name_; }
  Tensor Forward(const Tensor& input, LayerContext* ctx, bool training) override;
  Tensor Backward(const Tensor& grad_output, LayerContext* ctx) override;
  // dW and db only: skips the dy W^T product.
  void BackwardParams(const Tensor& grad_output, LayerContext* ctx) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  Dense(const Dense&) = default;

  std::string name_;
  int64_t in_features_;
  int64_t out_features_;
  Parameter weight_;
  Parameter bias_;
};

}  // namespace pipedream

#endif  // SRC_GRAPH_DENSE_H_
