// Analytic performance predictions for a (profile, plan, topology) triple — the model the
// optimizer reasons with. The event-driven simulator (src/simexec) measures the same
// quantities by actually executing the schedule; Figure 15's reproduction compares the two.
#ifndef SRC_PLANNER_PREDICTOR_H_
#define SRC_PLANNER_PREDICTOR_H_

#include <optional>
#include <vector>

#include "src/common/schedule.h"
#include "src/planner/plan.h"
#include "src/profile/layer_profile.h"
#include "src/sim/topology.h"

namespace pipedream {

// The schedule dimension of a prediction — which member of the zoo (docs/SCHEDULES.md) the
// plan will run under, plus its shape parameters. The planner prices every (schedule,
// weight-mode, recompute) cell through PredictPlan before the runtime commits to one
// (EnumerateScheduleFrontier in schedule_frontier.h).
struct ScheduleSpec {
  ScheduleKind kind = ScheduleKind::kOneFOneB;
  // Round size m for the flush family (kGPipe / kPipeDreamFlush); kModelParallel is m = 1.
  int flush_microbatches = 4;
  // Virtual chunks per physical worker for kInterleaved; the plan must be straight with
  // num_stages divisible by this. 1 elsewhere.
  int interleave_chunks = 1;
  // Global activation-recompute override: set → every stage priced with/without recompute;
  // unset → each stage follows its plan flag (StageAssignment::recompute).
  std::optional<bool> recompute;
};

struct StagePrediction {
  double compute_seconds = 0.0;        // per-minibatch fwd+bwd on one replica (incl. recompute)
  double sync_seconds = 0.0;           // weight-sync wall time if replicated (whole iteration)
  double effective_seconds = 0.0;      // max(compute, sync) / replicas
  double input_comm_seconds = 0.0;     // activation+gradient transfer on the inbound boundary
  int64_t weight_bytes = 0;            // per replica
  int64_t activation_stash_bytes = 0;  // per replica, one in-flight minibatch
  int in_flight = 1;                   // stashed minibatch depth under the priced schedule
  WeightMode weight_mode = WeightMode::kStashing;  // mode the memory model was priced under
  bool recompute = false;              // whether the memory model dropped the stash term
  int64_t peak_memory_bytes = 0;       // per replica: weights, grads, stashes
};

struct PlanPrediction {
  std::vector<StagePrediction> stages;
  // Steady-state minibatch interval. For the flush family this already includes the
  // amortized drain bubble — the per-stage bottleneck scaled by (m + S - 1) / m — and for
  // interleaved plans it is the per-physical-worker occupancy (sum over the worker's
  // chunks), not the per-chunk time.
  double bottleneck_seconds = 0.0;
  double throughput_samples_per_sec = 0.0;  // minibatch_size / bottleneck
  double comm_bytes_per_sample = 0.0;       // total network bytes / samples processed
  // Max over *physical workers* (an interleaved worker sums its chunks' peaks).
  int64_t max_worker_memory_bytes = 0;

  double EpochSeconds(int64_t dataset_samples) const {
    return throughput_samples_per_sec > 0.0
               ? static_cast<double>(dataset_samples) / throughput_samples_per_sec
               : 0.0;
  }
};

// Prices `plan` under any member of the schedule zoo (default: plain 1F1B). Stash depths
// follow the plan's NOAM through the shared memory model (src/planner/memory_model.h),
// which also folds recompute-vs-stash into the memory objective; the extra recompute
// forward lands in compute. Flush-family schedules are priced with kNaive weights (what
// the runtime enforces — no update commits inside a round) and their throughput carries
// the (m + S - 1) / m drain bubble; interleaved plans must be straight with num_stages
// divisible by interleave_chunks, and memory/occupancy aggregate over the k chunk-stages
// each physical worker (stage mod num_workers) hosts.
//
// `workers` makes the prediction heterogeneity-aware: `workers[w].speed` stretches compute
// hosted on worker w by 1/speed, and a replicated stage's round-robin round is gated by
// its slowest replica, so stage compute is scaled by 1 / min(speed over the stage's
// workers). Empty means uniform unit speed; otherwise plan worker ids must index into it.
PlanPrediction PredictPlan(const ModelProfile& profile, const PipelinePlan& plan,
                           const HardwareTopology& topology, const ScheduleSpec& schedule = {},
                           const std::vector<WorkerSpec>& workers = {});

}  // namespace pipedream

#endif  // SRC_PLANNER_PREDICTOR_H_
