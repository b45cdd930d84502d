// Stochastic gradient descent with optional momentum and decoupled weight decay.
#ifndef SRC_OPTIM_SGD_H_
#define SRC_OPTIM_SGD_H_

#include "src/optim/optimizer.h"
#include "src/tensor/tensor.h"

namespace pipedream {

class Sgd : public Optimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0, double weight_decay = 0.0)
      : Optimizer(learning_rate), momentum_(momentum), weight_decay_(weight_decay) {}

  void Step(const std::vector<Parameter*>& params) override;
  std::unique_ptr<Optimizer> CloneFresh() const override {
    return std::make_unique<Sgd>(learning_rate_, momentum_, weight_decay_);
  }
  std::vector<const Tensor*> State() const override { return StateOf({&velocity_}); }

 private:
  double momentum_;
  double weight_decay_;
  std::vector<Tensor> velocity_;
};

}  // namespace pipedream

#endif  // SRC_OPTIM_SGD_H_
