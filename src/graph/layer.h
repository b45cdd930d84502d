// Layer abstraction with explicit per-minibatch state.
//
// PipeDream's 1F1B schedule interleaves forward and backward passes of *different*
// minibatches on the same worker, so a layer cannot keep "the" saved activations as member
// state. Instead, Forward writes everything the matching Backward needs into a caller-owned
// LayerContext, and Backward reads it back. The runtime keeps one context per in-flight
// minibatch — this is exactly the activation stash of §3.3 / §4 ("Intermediate State").
//
// Parameters are member state (Parameter::value) and are versioned externally by the weight
// store (weight stashing): the runtime copies values out after forward and restores them
// before the matching backward when versions have advanced.
#ifndef SRC_GRAPH_LAYER_H_
#define SRC_GRAPH_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace pipedream {

// A named trainable tensor and its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  void ZeroGrad() {
    if (!grad.SameShape(value)) {
      grad = Tensor(value.shape());
    } else {
      grad.SetZero();
    }
  }
};

// Per-minibatch stash: whatever a layer's Forward saved for its Backward.
struct LayerContext {
  std::vector<Tensor> saved;

  void Clear() { saved.clear(); }

  // Total bytes held by the stash (used for memory-footprint accounting).
  int64_t SizeBytes() const {
    int64_t total = 0;
    for (const Tensor& t : saved) {
      total += t.SizeBytes();
    }
    return total;
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const std::string& name() const = 0;

  // Computes the layer output. `training` distinguishes train/eval behaviour (dropout).
  // Saves whatever Backward needs into *ctx (overwriting previous contents).
  virtual Tensor Forward(const Tensor& input, LayerContext* ctx, bool training) = 0;

  // Computes the gradient w.r.t. the layer input given the gradient w.r.t. the output,
  // accumulating parameter gradients into Parameter::grad. `ctx` is the context filled by
  // the matching Forward call; layers may consume (move out of) its contents.
  virtual Tensor Backward(const Tensor& grad_output, LayerContext* ctx) = 0;

  // Backward for a layer whose input gradient nobody reads (the input stage's first
  // parameterized layer): accumulates exactly the parameter gradients Backward would, bit
  // for bit, and consumes ctx the same way. Overrides skip the input-gradient work; the
  // default runs Backward and drops its result.
  virtual void BackwardParams(const Tensor& grad_output, LayerContext* ctx) {
    Backward(grad_output, ctx);
  }

  // Trainable parameters; empty for stateless layers.
  virtual std::vector<Parameter*> Params() { return {}; }

  // Deep copy (used to instantiate replicated stages with identical initial weights).
  virtual std::unique_ptr<Layer> Clone() const = 0;

  // Total parameter bytes (the w_l of the paper's profile).
  int64_t ParamBytes() {
    int64_t total = 0;
    for (Parameter* p : Params()) {
      total += p->value.SizeBytes();
    }
    return total;
  }

  void ZeroGrads() {
    for (Parameter* p : Params()) {
      p->ZeroGrad();
    }
  }
};

}  // namespace pipedream

#endif  // SRC_GRAPH_LAYER_H_
