// Stall attribution: where do pipeline bubbles come from?
//
// PipeDream's efficiency argument is entirely about bubbles — time a stage worker spends
// not computing. A flat "stall" span says *that* a worker waited; this layer says *why*,
// with the causes the paper's analysis distinguishes:
//
//   starved_upstream         — ready for a forward, but the previous stage hasn't sent one
//   backpressured_downstream — blocked on the backward path (or, at the input stage, on the
//                              1F1B in-flight cap) waiting for downstream progress
//   weight_sync              — waiting in the replicated-stage AllReduce barrier
//   recovery                 — the whole pipeline quiesced for failure recovery
//
// The trainer classifies each wait at the moment it resolves (the work type that unblocked
// the worker names the cause) and feeds it here; the accountant keeps cumulative
// nanosecond counters per (stage, cause) and, per training attempt, publishes the bubble
// *fraction* by cause into the metrics registry:
//
//   runtime/stage<N>/bubble/<cause>_ns      counter, cumulative (the bench reads these)
//   runtime/stage<N>/bubble_frac/<cause>    callback gauge, last finished window
//
// The same classification rule applied to the simulator's gap structure yields the sim side
// of BENCH_obs.json's bubble-attribution section, so sim and real bubbles are comparable
// cause by cause.
#ifndef SRC_OBS_BUBBLE_H_
#define SRC_OBS_BUBBLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace pipedream {
namespace obs {

enum class StallCause : uint8_t {
  kStarvedUpstream = 0,
  kBackpressuredDownstream = 1,
  kWeightSync = 2,
  kRecovery = 3,
};

inline constexpr int kNumStallCauses = 4;

// "starved_upstream", "backpressured_downstream", "weight_sync", "recovery".
const char* StallCauseName(StallCause cause);

// The trace-span name for a wait attributed to `cause` ("stall/starved_upstream", ...).
// String literals — safe to hand to the trace ring, which stores the pointer.
const char* StallCauseSpanName(StallCause cause);

class Counter;

// Per-(stage, cause) bubble accounting. Add() is wait-free (two relaxed atomics) and may be
// called from any worker thread; FinishWindow() is called by the coordinator once per
// training attempt, with the workers joined.
class BubbleAccountant {
 public:
  explicit BubbleAccountant(int num_stages);

  int num_stages() const { return static_cast<int>(stages_.size()); }

  // Records `ns` of stall on `stage` attributed to `cause`.
  void Add(int stage, StallCause cause, int64_t ns);

  // Records `ns` on every stage at once — recovery stalls the whole pipeline.
  void AddAll(StallCause cause, int64_t ns);

  // Publishes this window's per-cause bubble fraction of `window_seconds` (the stage's
  // total worker-time in the attempt) to the runtime/stage<N>/bubble_frac/* gauges and
  // clears the window accumulators. Fractions stay readable (health endpoint, exit dump)
  // until the next window finishes.
  void FinishWindow(int stage, double window_seconds);

  // This window's accumulated ns for (stage, cause) — test/introspection hook.
  int64_t WindowNs(int stage, StallCause cause) const;

 private:
  struct StageCell {
    std::array<std::atomic<int64_t>, kNumStallCauses> window_ns{};
    std::array<Counter*, kNumStallCauses> total_ns{};
    // Callback-gauge cells: the registry reads these lazily at dump time (the
    // gen_throughput_ pattern) from the thread that serves /metrics, so a fraction survives
    // registry Reset() brackets; atomic because that read races the window's close.
    std::array<std::shared_ptr<std::atomic<double>>, kNumStallCauses> fraction{};
  };
  std::vector<StageCell> stages_;
};

}  // namespace obs
}  // namespace pipedream

#endif  // SRC_OBS_BUBBLE_H_
