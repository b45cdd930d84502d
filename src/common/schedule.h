// Pipeline schedule kinds — the zoo of docs/SCHEDULES.md.
//
// Like WeightMode, the enum lives in common/ because every layer of the stack keys off it:
// CompileSchedule (src/schedule/program.h) turns a kind into per-worker programs that the
// runtime and the simulator both execute, and the planner treats it as a first-class
// dimension alongside the partition and the per-stage weight mode (PredictPlan /
// EnumerateScheduleFrontier). Memory formulas per kind are documented in
// docs/SCHEDULES.md and implemented once in src/planner/memory_model.h.
//
//   kOneFOneB       — PipeDream 1F1B / 1F1B-RR: startup-depth forwards, then strict
//                     alternation. Stash depth at stage s of a straight S-stage pipeline
//                     is S - s; weights need versioning (stashing / 2BW / vertical sync).
//   kGPipe          — microbatch rounds of m with a full pipeline flush per round: every
//                     stage runs all m forwards, then all m backwards, then a synchronous
//                     weight update. Stash depth is m at every stage; weights never skew
//                     (kNaive).
//   kModelParallel  — one minibatch in flight (GPipe with m = 1).
//   kPipeDreamFlush — PipeDream-Flush (the 2BW follow-up paper): 1F1B ordering *within* a
//                     round of m microbatches, then a pipeline drain and one aggregated
//                     update. Same bubble as GPipe, but the stash depth is min(S - s, m)
//                     instead of m, and weights stay kNaive-correct like GPipe's.
//   kInterleaved    — interleaved virtual stages (Megatron-style, cf. BaPipe): a straight
//                     plan of S = k * W chunk-stages where physical worker w = s mod W owns
//                     k non-contiguous chunks and serializes their work in the compiled
//                     order: the chunks' 1F1B sequences merged by a list scheduler.
//                     Per-chunk semantics (weight modes, updates) are exactly 1F1B's;
//                     k = 1 is bitwise-identical to kOneFOneB.
#ifndef SRC_COMMON_SCHEDULE_H_
#define SRC_COMMON_SCHEDULE_H_

namespace pipedream {

enum class ScheduleKind {
  kOneFOneB,
  kGPipe,
  kModelParallel,
  kPipeDreamFlush,
  kInterleaved,
};

// Schedules that drain the pipeline and apply one aggregated update per round of m
// microbatches (kGPipe, kModelParallel, kPipeDreamFlush). They share the flush barrier,
// the round-gated admission, and the kNaive weight discipline — within a round no update
// commits between a minibatch's forward and backward, so versioning is unnecessary.
bool IsFlushFamily(ScheduleKind kind);

const char* ScheduleKindName(ScheduleKind kind);

}  // namespace pipedream

#endif  // SRC_COMMON_SCHEDULE_H_
