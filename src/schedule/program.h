// Schedule compiler: every member of the schedule zoo (docs/SCHEDULES.md) as static
// per-worker instruction lists.
//
// PipeDream §3.2 observes that 1F1B's op order is a fixed function of the schedule. The
// same holds for GPipe, model parallelism, PipeDream-Flush (arXiv 2006.09503), and
// interleaved virtual stages, so CompileSchedule turns a schedule, each stage's active
// replica rotation, and a minibatch range into one program per physical worker. Both
// substrates execute those programs strictly in order: the event simulator
// (src/simexec/pipeline_sim.h) in virtual time, and the threaded runtime
// (src/runtime/pipeline_trainer.h) with real numerics. Every Fwd/Bwd names the minibatch it
// consumes, so execution is deterministic whatever order messages arrive in, and each
// program set is a feasible execution, so a run cannot wedge. Both substrates recompile on
// every epoch attempt and restart, so degraded ejection and recovery need no
// schedule-specific code.
//
// One replica's op sequence over its minibatches b_0 < b_1 < ... with depth d is the 1F1B
// sequence: min(d, n) forwards, then strict alternation starting with a backward, then the
// drain. The schedule picks the depth and where updates go:
//
//   kOneFOneB        d = StartupDepth (capped by the depth override); a Step after every
//                    `accumulation` backwards of the replica.
//   kPipeDreamFlush  d = StartupDepth, one sequence per round of m minibatches, each
//                    closed by Step + Flush.
//   kGPipe           d = m: all forwards of a round, then all its backwards, Step + Flush.
//   kModelParallel   GPipe with m = 1.
//   kInterleaved     each chunk-stage s runs the 1F1B sequence with d = S - s; a unit-time
//                    list scheduler merges a worker's chunks into one list, deepest ready
//                    chunk first, which drains the pipe and never wedges.
#ifndef SRC_SCHEDULE_PROGRAM_H_
#define SRC_SCHEDULE_PROGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/schedule.h"
#include "src/planner/plan.h"
#include "src/schedule/work.h"

namespace pipedream {

enum class OpCode {
  kFwd,    // forward of `minibatch` at `stage`: wait for its activation (or load it)
  kBwd,    // backward of `minibatch` at `stage`: wait for its gradient
  kStep,   // apply the gradients accumulated since the last Step (scale, all-reduce, step)
  kFlush,  // pipeline-flush barrier: every worker arrives before any proceeds
};

struct Instr {
  OpCode op = OpCode::kFwd;
  int stage = 0;
  int64_t minibatch = 0;  // kStep: the last backward folded in; kFlush: the round's last
};

inline WorkType WorkTypeOf(OpCode op) {
  return op == OpCode::kFwd ? WorkType::kForward : WorkType::kBackward;
}

// What to compile: the schedule kind and its shape parameters.
struct ProgramSpec {
  ScheduleKind kind = ScheduleKind::kOneFOneB;
  int round_size = 4;      // m for kGPipe / kPipeDreamFlush (kModelParallel runs m = 1)
  int chunks = 1;          // chunk-stages per physical worker (kInterleaved only)
  int accumulation = 1;    // backwards per Step for kOneFOneB / kInterleaved
  int depth_override = 0;  // kOneFOneB: stage s runs at most max(1, override - s) ahead
};

// One physical worker's program. Under kInterleaved worker w hosts chunk-stages
// w, W + w, 2W + w, ... (W = stages / chunks); otherwise it hosts one stage.
struct WorkerProgram {
  std::vector<int> stages;  // hosted stages, shallowest first
  int rank = 0;             // the worker's slot in each hosted stage's rotation
  std::vector<Instr> instrs;
};

// Startup depth for a stage: how many forwards a replica runs before its first backward,
// ceil(workers at or downstream of the stage / the stage's replicas). For a straight
// pipeline this is num_stages - stage; the input stage's depth is NOAM.
int StartupDepth(const PipelinePlan& plan, int stage);

// Compiles [begin, end) for stages whose active rotations have `replicas[s]` members
// (minibatch b runs on rank b % replicas[s] of stage s). Programs come stage-major,
// rank-minor; under kInterleaved (every stage unreplicated, stages % chunks == 0) program
// w is physical worker w. Flush-family rounds are m consecutive minibatches from `begin`;
// the last one is short when m does not divide the range.
std::vector<WorkerProgram> CompileSchedule(const ProgramSpec& spec,
                                           const std::vector<int>& replicas, int64_t begin,
                                           int64_t end);

}  // namespace pipedream

#endif  // SRC_SCHEDULE_PROGRAM_H_
