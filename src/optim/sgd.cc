#include "src/optim/sgd.h"

#include <utility>

#include "src/common/check.h"
#include "src/optim/state.h"

namespace pipedream {

void Sgd::Step(const std::vector<Parameter*>& params) {
  if (momentum_ != 0.0 && velocity_.size() != params.size()) {
    PD_CHECK(velocity_.empty()) << "parameter list changed between Step calls";
    velocity_.reserve(params.size());
    for (Parameter* p : params) {
      velocity_.emplace_back(p->value.shape());
    }
  }
  const float lr = static_cast<float>(learning_rate_);
  const float mu = static_cast<float>(momentum_);
  const float wd = static_cast<float>(weight_decay_);
  for (size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    PD_CHECK(p->grad.SameShape(p->value)) << p->name << ": grad/value shape mismatch";
    float* value = p->value.data();
    const float* grad = std::as_const(p->grad).data();  // const read: must not detach the COW-shared grad
    const int64_t n = p->value.numel();
    if (momentum_ == 0.0) {
      for (int64_t j = 0; j < n; ++j) {
        value[j] -= lr * (grad[j] + wd * value[j]);
      }
    } else {
      float* vel = velocity_[i].data();
      for (int64_t j = 0; j < n; ++j) {
        vel[j] = StateValue(mu * vel[j] + grad[j] + wd * value[j]);
        value[j] -= lr * vel[j];
      }
    }
  }
}

}  // namespace pipedream
