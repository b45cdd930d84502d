// Sequential model container: an ordered list of layers, which is exactly the operator-graph
// shape PipeDream partitions (each stage is a consecutive slice of layers, paper §3).
#ifndef SRC_GRAPH_SEQUENTIAL_H_
#define SRC_GRAPH_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/graph/layer.h"

namespace pipedream {

// Per-minibatch stash across every layer of a model (or stage).
struct ModelContext {
  std::vector<LayerContext> per_layer;

  int64_t SizeBytes() const {
    int64_t total = 0;
    for (const LayerContext& ctx : per_layer) {
      total += ctx.SizeBytes();
    }
    return total;
  }
};

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void Add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  size_t size() const { return layers_.size(); }
  Layer* layer(size_t i) const {
    PD_CHECK_LT(i, layers_.size());
    return layers_[i].get();
  }

  // Runs all layers in order, stashing into ctx (resized to match).
  Tensor Forward(const Tensor& input, ModelContext* ctx, bool training) const;

  // Runs all layers in reverse, consuming ctx. Accumulates parameter gradients.
  Tensor Backward(const Tensor& grad_output, ModelContext* ctx) const;

  // Backward for a slice whose input gradient nobody reads (PipeDream's input stage, an
  // ASP worker): runs the layers in reverse down to the first one with parameters, which
  // runs Layer::BackwardParams. The parameterless layers below it are not run and their
  // contexts are left as they are. Parameter gradients are bitwise those of Backward.
  void BackwardParams(const Tensor& grad_output, ModelContext* ctx) const;

  // Index of the first layer that has parameters, or size() when none does: the layer at
  // which BackwardParams stops.
  size_t FirstParameterizedLayer() const;

  // All trainable parameters, in layer order.
  std::vector<Parameter*> Params() const;

  void ZeroGrads() const;

  // Total parameter bytes across all layers.
  int64_t ParamBytes() const;

  // Deep copy of the whole model.
  std::unique_ptr<Sequential> Clone() const;

  // Deep copy of layers [begin, end) — used to instantiate a pipeline stage.
  std::unique_ptr<Sequential> CloneSlice(size_t begin, size_t end) const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace pipedream

#endif  // SRC_GRAPH_SEQUENTIAL_H_
