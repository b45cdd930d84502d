// Weight-versioning modes for pipeline-parallel training.
//
// The enum lives in common/ (not runtime/) because every layer of the stack keys off it:
// the runtime's WeightStore implements the protocols, the simulator prices their memory
// and sync cadence in virtual time, and the planner carries a per-stage mode in the plan so
// the partitioner can trade stash memory against staleness semantics per stage.
//
//   kNaive          — no versioning. Backward runs against whatever the weights are at that
//                     moment (the paper's "invalid gradients" baseline; also the correct
//                     mode for GPipe, whose flushes prevent any version skew).
//   kStashing       — PipeDream weight stashing (§3.2/3.3): one stashed version per
//                     in-flight minibatch, so stash memory grows with pipeline depth.
//   kVerticalSync   — stashing plus a cross-stage version pin: every stage runs both passes
//                     of a minibatch at the version stamped by the input stage.
//   kDoubleBuffered — PipeDream-2BW (Memory-Efficient Pipeline-Parallel DNN Training):
//                     gradients accumulate over m >= pipeline-depth microbatches and
//                     exactly two weight buffers (current + shadow) serve all in-flight
//                     minibatches. Update rule W(t+1) = W(t) - γ·∇f(W(t-1)): a constant
//                     staleness of one update for every stage, and a constant
//                     2×-weights + 1×-gradient-accumulator footprint regardless of depth.
#ifndef SRC_COMMON_WEIGHT_MODE_H_
#define SRC_COMMON_WEIGHT_MODE_H_

namespace pipedream {

enum class WeightMode {
  kNaive,
  kStashing,
  kVerticalSync,
  kDoubleBuffered,
};

const char* WeightModeName(WeightMode mode);

}  // namespace pipedream

#endif  // SRC_COMMON_WEIGHT_MODE_H_
