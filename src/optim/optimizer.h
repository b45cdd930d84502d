// Optimizer interface. State (momentum buffers, Adam moments) is keyed positionally by the
// order parameters are passed to Step(), which must be stable across calls — Sequential
// returns parameters in a fixed layer order, so this holds by construction.
#ifndef SRC_OPTIM_OPTIMIZER_H_
#define SRC_OPTIM_OPTIMIZER_H_

#include <initializer_list>
#include <memory>
#include <vector>

#include "src/graph/layer.h"

namespace pipedream {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  // Applies one update using each parameter's accumulated .grad. Does not zero gradients;
  // the caller controls gradient lifetime (needed for gradient aggregation across replicas).
  virtual void Step(const std::vector<Parameter*>& params) = 0;

  // Fresh copy with the same hyperparameters and *empty* state (each stage replica owns its
  // own optimizer state).
  virtual std::unique_ptr<Optimizer> CloneFresh() const = 0;

  // The state buffers (momentum, moments), one per parameter per kind, positional like
  // Step's parameters. Empty for stateless optimizers and before the first Step.
  virtual std::vector<const Tensor*> State() const { return {}; }

  double learning_rate() const { return learning_rate_; }
  void set_learning_rate(double lr) { learning_rate_ = lr; }

 protected:
  explicit Optimizer(double learning_rate) : learning_rate_(learning_rate) {}

  // Pointers to every tensor of each buffer list, in order, for State().
  static std::vector<const Tensor*> StateOf(
      std::initializer_list<const std::vector<Tensor>*> buffers) {
    std::vector<const Tensor*> state;
    for (const std::vector<Tensor>* buffer : buffers) {
      for (const Tensor& t : *buffer) {
        state.push_back(&t);
      }
    }
    return state;
  }

  double learning_rate_;
};

}  // namespace pipedream

#endif  // SRC_OPTIM_OPTIMIZER_H_
