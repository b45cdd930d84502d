// The schedule zoo as a priced frontier: every (schedule, weight-mode, recompute) cell the
// runtime can execute, predicted under one memory/throughput model (memory_model.h via
// PredictPlan) so the planner can pick the best schedule that fits a device budget before
// the runtime commits to one. BENCH_2bw.json's schedule_frontier section and the
// docs/SCHEDULES.md tables are generated from exactly these cells.
#ifndef SRC_PLANNER_SCHEDULE_FRONTIER_H_
#define SRC_PLANNER_SCHEDULE_FRONTIER_H_

#include <vector>

#include "src/planner/plan.h"
#include "src/planner/predictor.h"
#include "src/profile/layer_profile.h"
#include "src/sim/topology.h"

namespace pipedream {

struct ScheduleCandidate {
  ScheduleSpec schedule;
  // Global weight mode the cell was priced under (flush-family cells are always kNaive —
  // the runtime forces it).
  WeightMode weight_mode = WeightMode::kStashing;
  bool recompute = false;
  // The plan the cell runs: the input plan, except for interleaved cells, which re-split
  // the model into interleave_chunks * workers chunk-stages.
  PipelinePlan plan;
  PlanPrediction prediction;
  // prediction.max_worker_memory_bytes <= device_memory_bytes (always true when the budget
  // is unconstrained).
  bool fits = true;
};

// Prices the zoo over a straight plan:
//   1F1B   x {kStashing, kDoubleBuffered} x {stash, recompute}
//   flush  (PipeDream-Flush, m = flush_microbatches, kNaive) x {stash, recompute}
//   gpipe  (m = flush_microbatches, kNaive) x {stash, recompute}
//   interleaved (k = 2 chunk-stages per worker, same worker count) x {kStashing,
//          kDoubleBuffered}
// The interleaved cells re-balance the model over 2 * workers chunk-stages, so `topology`
// must cover that many worker ids. `device_memory_bytes` <= 0 means unconstrained (every
// cell fits).
std::vector<ScheduleCandidate> EnumerateScheduleFrontier(const ModelProfile& profile,
                                                         const PipelinePlan& plan,
                                                         const HardwareTopology& topology,
                                                         int64_t device_memory_bytes,
                                                         int flush_microbatches = 4);

// Best-throughput candidate that fits, or nullptr when none does. Pointer into `frontier`.
const ScheduleCandidate* ChooseSchedule(const std::vector<ScheduleCandidate>& frontier);

}  // namespace pipedream

#endif  // SRC_PLANNER_SCHEDULE_FRONTIER_H_
