// Pipeline plans: the output of PipeDream's optimizer (§3.1).
//
// A plan assigns consecutive layer ranges to stages, gives each stage a replication factor
// (data parallelism within the stage), and maps stage replicas to global worker ids. Vanilla
// data parallelism is the special case of a single stage covering every layer, replicated
// across all workers; model parallelism and "straight" pipelines have one worker per stage.
#ifndef SRC_PLANNER_PLAN_H_
#define SRC_PLANNER_PLAN_H_

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/status.h"
#include "src/common/weight_mode.h"
#include "src/profile/layer_profile.h"

namespace pipedream {

struct StageAssignment {
  int begin_layer = 0;  // inclusive
  int end_layer = 0;    // exclusive
  int replicas = 1;
  std::vector<int> workers;  // global worker ids; size() == replicas
  // Weight-update discipline for this stage (§3.3; 2BW from the follow-up paper). The
  // partitioner flips memory-squeezed stages to kDoubleBuffered when given a device budget;
  // PipelineTrainerOptions::weight_mode overrides it globally.
  WeightMode weight_mode = WeightMode::kStashing;
  // Activation recomputation for this stage: stash only the inbound boundary activation and
  // re-run the forward (under the minibatch's stashed weights) just before the backward,
  // trading ~1 extra stage-forward for dropping the act * (in_flight - 1) stash overhang
  // (docs/SCHEDULES.md). Set by the partitioner's ChooseRecompute post-pass when a stage
  // still busts device_memory_bytes after weight-mode selection;
  // PipelineTrainerOptions::recompute_activations turns it on for every stage.
  bool recompute = false;

  int num_layers() const { return end_layer - begin_layer; }
};

// One physical worker as the elastic planner sees it. `speed` is a relative compute factor
// against the profile's reference device (0.5 = half speed, so any stage hosted there takes
// 1/speed longer); every device shares PartitionerOptions::device_memory_bytes as its
// budget. Membership changes re-run the partitioner over the live WorkerSpec set.
struct WorkerSpec {
  double speed = 1.0;
};

class PipelinePlan {
 public:
  PipelinePlan() = default;
  explicit PipelinePlan(std::vector<StageAssignment> stages) : stages_(std::move(stages)) {}

  int num_stages() const { return static_cast<int>(stages_.size()); }
  const StageAssignment& stage(int i) const {
    PD_CHECK(i >= 0 && i < num_stages());
    return stages_[static_cast<size_t>(i)];
  }
  const std::vector<StageAssignment>& stages() const { return stages_; }

  int total_workers() const;

  // True when the plan is one stage over every layer (vanilla data parallelism).
  bool IsDataParallel(int num_layers) const;
  // True when no stage is replicated.
  bool IsStraight() const;

  // NUM_OPT_ACTIVE_MINIBATCHES (§3.2): minibatches admitted per input-stage replica to keep
  // the pipeline full: ceil(total workers / input-stage replicas).
  int Noam() const;

  // Paper-style config string: "16" for 16-way DP, "15-1", "2-1-1", or "straight" for an
  // unreplicated multi-stage pipeline.
  std::string ConfigString(int num_layers) const;

  // Checks layer coverage (contiguous [0, num_layers)), replica/worker consistency, and that
  // no worker is assigned twice.
  void Validate(int num_layers) const;

 private:
  std::vector<StageAssignment> stages_;
};

// One stage covering all layers, replicated over workers 0..workers-1 (vanilla DP).
PipelinePlan MakeDataParallelPlan(int num_layers, int workers);

// A straight pipeline from explicit layer boundaries: cuts[i] is the first layer of stage
// i+1. Workers are assigned in stage order.
PipelinePlan MakeStraightPlan(int num_layers, const std::vector<int>& cuts);

// A plan from per-stage (layer-count, replicas) pairs, assigning workers contiguously.
PipelinePlan MakePlanFromShape(const std::vector<std::pair<int, int>>& layers_and_replicas);

// Balanced straight pipeline over `stages` workers minimizing the max per-stage compute time
// (single-level DP with replication disabled). Used for model-parallel baselines and GPipe.
PipelinePlan MakeBalancedStraightPlan(const ModelProfile& profile, int stages);

// Builds a plan from a paper-style config string against a profile: "16" (that many DP
// replicas), "straight" (`workers` supplies the stage count), or "15-1"-style per-stage
// replica lists. Layer boundaries are chosen to balance per-replica compute.
// `workers` > 0 additionally validates that the config uses exactly that many workers.
Result<PipelinePlan> MakePlanFromConfigString(const ModelProfile& profile,
                                              const std::string& config, int workers);

// Balanced layer split for a fixed per-stage replica vector: minimizes
// max_i compute(stage_i) / replicas_i.
PipelinePlan MakeBalancedPlanWithReplicas(const ModelProfile& profile,
                                          const std::vector<int>& replicas);

}  // namespace pipedream

#endif  // SRC_PLANNER_PLAN_H_
