#include "src/optim/lars.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/optim/state.h"
#include "src/tensor/ops.h"

namespace pipedream {

void Lars::Step(const std::vector<Parameter*>& params) {
  if (velocity_.size() != params.size()) {
    PD_CHECK(velocity_.empty()) << "parameter list changed between Step calls";
    velocity_.reserve(params.size());
    for (Parameter* p : params) {
      velocity_.emplace_back(p->value.shape());
    }
  }
  const float mu = static_cast<float>(momentum_);
  const float wd = static_cast<float>(weight_decay_);

  for (size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    PD_CHECK(p->grad.SameShape(p->value)) << p->name << ": grad/value shape mismatch";
    const double w_norm = Norm(p->value);
    const double g_norm = Norm(p->grad);
    // Local learning rate: trust * ||w|| / (||g|| + wd ||w||); falls back to the global rate
    // when either norm is degenerate (fresh zero-initialized biases).
    double local_lr = learning_rate_;
    if (w_norm > 0.0 && g_norm > 0.0) {
      local_lr = learning_rate_ * trust_coefficient_ * w_norm /
                 (g_norm + weight_decay_ * w_norm);
    }
    const float lr = static_cast<float>(local_lr);
    float* value = p->value.data();
    const float* grad = std::as_const(p->grad).data();  // const read: must not detach the COW-shared grad
    float* vel = velocity_[i].data();
    const int64_t n = p->value.numel();
    for (int64_t j = 0; j < n; ++j) {
      vel[j] = StateValue(mu * vel[j] + lr * (grad[j] + wd * value[j]));
      value[j] -= vel[j];
    }
  }
}

}  // namespace pipedream
