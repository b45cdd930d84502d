// Adam (Kingma & Ba, 2014) with bias correction, as used by the paper for GNMT training.
#ifndef SRC_OPTIM_ADAM_H_
#define SRC_OPTIM_ADAM_H_

#include "src/optim/optimizer.h"
#include "src/tensor/tensor.h"

namespace pipedream {

class Adam : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8)
      : Optimizer(learning_rate), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

  void Step(const std::vector<Parameter*>& params) override;
  std::unique_ptr<Optimizer> CloneFresh() const override {
    return std::make_unique<Adam>(learning_rate_, beta1_, beta2_, epsilon_);
  }
  // Every m, then every v.
  std::vector<const Tensor*> State() const override { return StateOf({&m_, &v_}); }

 private:
  double beta1_;
  double beta2_;
  double epsilon_;
  int64_t step_count_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace pipedream

#endif  // SRC_OPTIM_ADAM_H_
