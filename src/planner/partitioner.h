// PipeDream's partitioning optimizer (paper §3.1).
//
// Two dynamic programs, both priced by src/planner/cost_model.h:
//   PartitionFlat and      — one prefix DP over a single interconnect level and an ordered
//   PartitionHeterogeneous   worker list: the best pipeline over layers 0..j on the first c
//                            workers. Flat partitioning runs it on unit-speed workers in id
//                            order; heterogeneous partitioning on the speed-sorted order.
//   PartitionHierarchical  — the full level-by-level composition of Figure 7's hierarchy
//                            (per-level kernel SolveLevel, which solves every start layer):
//                            level k's "workers" are whole level-(k-1) components, and
//                            replicating a stage at level k replicates the entire optimal
//                            sub-pipeline computed for the lower level.
//
// All return the plan plus the predicted slowest-stage time A (seconds per minibatch,
// amortized per input), which upper-bounds pipeline throughput in steady state.
#ifndef SRC_PLANNER_PARTITIONER_H_
#define SRC_PLANNER_PARTITIONER_H_

#include "src/planner/plan.h"
#include "src/profile/layer_profile.h"
#include "src/sim/topology.h"

namespace pipedream {

struct PartitionerOptions {
  bool allow_replication = true;   // false restricts to straight pipelines (model parallel)
  int64_t device_memory_bytes = 0;  // 0 = unconstrained; otherwise stages that cannot fit
                                    // (weights + stashes for their in-flight depth) are
                                    // rejected during the search
  int max_workers_used = 0;         // 0 = use all workers; otherwise an upper bound
  // Bandwidth derating applied by PartitionFlat and PartitionHeterogeneous
  // (PartitionHierarchical reads the per-level factors from the topology instead).
  // 1.0 = the raw bandwidth argument is already effective.
  double collective_efficiency = 1.0;
  double p2p_efficiency = 1.0;
  // Model the interconnect as one shared medium (PCIe-tree semantics) rather than per-worker
  // links. See TopologyLevel::shared_bus; PartitionHierarchical reads it from the topology.
  bool collective_shared_bus = false;
};

struct PartitionResult {
  PipelinePlan plan;
  // Effective time of the slowest stage per input minibatch (the A value of §3.1); the
  // steady-state pipeline emits one minibatch per this interval.
  double bottleneck_seconds = 0.0;
};

// Dynamic program over `workers` identical devices joined by links of a single bandwidth.
PartitionResult PartitionFlat(const ModelProfile& profile, int workers,
                              double bandwidth_bytes_per_sec,
                              const PartitionerOptions& options = {});

// The same dynamic program over heterogeneous devices joined by links of a single
// bandwidth. `workers[w].speed` stretches any stage hosted on worker w by 1/speed, and a
// replicated stage's round-robin round is gated by its slowest member, so a block's
// effective compute is raw_compute / min(speed). The search considers contiguous blocks of
// the speed-sorted worker order (both directions, keeping the better plan) — slow devices
// end up grouped on thin layer ranges, the BaPipe-style behavior the skewed-cluster tests
// assert. Worker ids in the returned plan index into `workers`; every worker is used unless
// options.max_workers_used caps the count (the fastest are kept).
PartitionResult PartitionHeterogeneous(const ModelProfile& profile,
                                       const std::vector<WorkerSpec>& workers,
                                       double bandwidth_bytes_per_sec,
                                       const PartitionerOptions& options = {});

// Level-by-level dynamic program over a hierarchical topology. Worker ids in the returned
// plan respect component boundaries (replicated sub-pipelines land on distinct components).
PartitionResult PartitionHierarchical(const ModelProfile& profile,
                                      const HardwareTopology& topology,
                                      const PartitionerOptions& options = {});

// Convenience: picks flat vs hierarchical based on the topology's level count.
PartitionResult Partition(const ModelProfile& profile, const HardwareTopology& topology,
                          const PartitionerOptions& options = {});

// Per-stage weight-mode selection under a device memory budget (2BW, the follow-up paper):
// any stage whose kStashing peak — weights * (in_flight + 1) + activations * in_flight,
// with in_flight the 1F1B stash depth — exceeds `device_memory_bytes` is flipped to
// kDoubleBuffered, whose footprint (weights * 3 + activations * in_flight) is constant in
// the pipeline depth. Returns the number of stages flipped; a zero/negative budget is
// unconstrained and leaves the plan untouched. Called automatically by the Partition*
// entry points when options.device_memory_bytes is set.
int ChooseWeightModes(const ModelProfile& profile, int64_t device_memory_bytes,
                      PipelinePlan* plan);

// Per-stage activation-recompute selection, run after ChooseWeightModes: any stage whose
// peak under its chosen weight mode still exceeds `device_memory_bytes` is flipped to
// recompute (StageAssignment::recompute), which replaces the act * in_flight stash with
// boundary_in * in_flight + one materialized working set (src/planner/memory_model.h) at
// the cost of ~1 extra stage-forward per minibatch. Stages are only flipped when recompute
// actually shrinks the peak. Returns the number of stages flipped; a zero/negative budget
// leaves the plan untouched. Called automatically by the Partition* entry points when
// options.device_memory_bytes is set.
int ChooseRecompute(const ModelProfile& profile, int64_t device_memory_bytes,
                    PipelinePlan* plan);

}  // namespace pipedream

#endif  // SRC_PLANNER_PARTITIONER_H_
