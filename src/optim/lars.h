// Layer-wise Adaptive Rate Scaling (You et al., 2017). Each parameter tensor's update is
// scaled by trust * ||w|| / (||g|| + wd * ||w||), enabling large-minibatch training — used by
// the Figure 13 reproduction comparing large-minibatch DP against PipeDream.
#ifndef SRC_OPTIM_LARS_H_
#define SRC_OPTIM_LARS_H_

#include "src/optim/optimizer.h"
#include "src/tensor/tensor.h"

namespace pipedream {

class Lars : public Optimizer {
 public:
  explicit Lars(double learning_rate, double momentum = 0.9, double weight_decay = 1e-4,
                double trust_coefficient = 0.001)
      : Optimizer(learning_rate),
        momentum_(momentum),
        weight_decay_(weight_decay),
        trust_coefficient_(trust_coefficient) {}

  void Step(const std::vector<Parameter*>& params) override;
  std::unique_ptr<Optimizer> CloneFresh() const override {
    return std::make_unique<Lars>(learning_rate_, momentum_, weight_decay_,
                                  trust_coefficient_);
  }
  std::vector<const Tensor*> State() const override { return StateOf({&velocity_}); }

 private:
  double momentum_;
  double weight_decay_;
  double trust_coefficient_;
  std::vector<Tensor> velocity_;
};

}  // namespace pipedream

#endif  // SRC_OPTIM_LARS_H_
