#include "src/optim/adam.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/optim/state.h"

namespace pipedream {
namespace {

// Restrict parameters let the loop vectorize without an aliasing check.
void AdamUpdate(int64_t n, float lr, float b1, float b2, float eps,
                const float* __restrict__ grad, float* __restrict__ m, float* __restrict__ v,
                float* __restrict__ value) {
  for (int64_t j = 0; j < n; ++j) {
    m[j] = StateValue(b1 * m[j] + (1.0f - b1) * grad[j]);
    v[j] = StateValue(b2 * v[j] + (1.0f - b2) * grad[j] * grad[j]);
    value[j] -= lr * m[j] / (std::sqrt(v[j]) + eps);
  }
}

}  // namespace

void Adam::Step(const std::vector<Parameter*>& params) {
  if (m_.size() != params.size()) {
    PD_CHECK(m_.empty()) << "parameter list changed between Step calls";
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (Parameter* p : params) {
      m_.emplace_back(p->value.shape());
      v_.emplace_back(p->value.shape());
    }
  }
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  const float lr = static_cast<float>(learning_rate_ * std::sqrt(bias2) / bias1);
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);
  const float eps = static_cast<float>(epsilon_);

  for (size_t i = 0; i < params.size(); ++i) {
    Parameter* p = params[i];
    PD_CHECK(p->grad.SameShape(p->value)) << p->name << ": grad/value shape mismatch";
    // A const read: it must not detach the COW-shared grad.
    AdamUpdate(p->value.numel(), lr, b1, b2, eps, std::as_const(p->grad).data(),
               m_[i].data(), v_[i].data(), p->value.data());
  }
}

}  // namespace pipedream
