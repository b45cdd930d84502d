// Event-driven cluster simulator for pipeline-parallel training.
//
// Executes a (profile, plan, topology) triple under any schedule of the zoo — 1F1B /
// 1F1B-RR, GPipe, model parallelism, PipeDream-Flush, interleaved virtual stages — in
// deterministic virtual time. Every device runs the program CompileSchedule
// (src/schedule/program.h) emits for it, strictly in order: the same programs the
// threaded runtime executes, so the simulated op order is the trained op order. The model
// covers per-worker compute serialization, per-worker NIC egress serialization for
// activations/gradients, per-stage weight-synchronization collectives for replicated
// stages, and flush barriers. This is the measurement substrate standing in for the
// paper's GPU clusters: it reports the throughput, utilization, memory, and communication
// quantities the evaluation section's tables and figures are built from.
#ifndef SRC_SIMEXEC_PIPELINE_SIM_H_
#define SRC_SIMEXEC_PIPELINE_SIM_H_

#include <optional>
#include <vector>

#include "src/common/schedule.h"
#include "src/common/weight_mode.h"
#include "src/planner/plan.h"
#include "src/profile/layer_profile.h"
#include "src/schedule/trace.h"
#include "src/sim/topology.h"

namespace pipedream {

// One injected device failure (mirrors the runtime's FaultPlan at simulation fidelity).
// The victim worker dies when it is about to process `at_minibatch`; `detection_seconds`
// later the failure is classified, a restart costing `restart_seconds` reloads the newest
// checkpoint (minibatch progress rounded down to `checkpoint_every`), and every minibatch
// past that boundary re-executes. With `degraded` set the victim is instead ejected from its
// replicated stage and the survivors carry the rebalanced round-robin load.
// For replicated / flush-family pipelines choose `checkpoint_every` as a multiple of the
// stage replica counts (and the round size) so the rollback point is round-aligned. The
// restart recompiles every program from the rollback point, so every schedule, interleaved
// included, recovers the same way.
//
// Elastic events (mirroring ElasticTrainer): with `replan` set, the restart does not respawn
// or eject in place — it re-runs the heterogeneous partitioner over the SURVIVING workers
// (speeds from SimOptions::worker_speeds) and resumes under the new plan, charging
// `replan_seconds` of partitioner + migration latency on top of detection + restart. A join
// event (`join_enabled`) fires once `join_at_minibatch` minibatches have completed: the
// pipeline quiesces, `join_worker` is admitted to the live set, and the partitioner re-plans
// over the enlarged cluster — no completed work is rolled back (the quiesce point writes a
// fresh checkpoint), only in-flight minibatches re-execute. Both require a 1F1B schedule.
struct SimFault {
  bool enabled = false;
  int stage = 0;
  int replica = 0;
  int64_t at_minibatch = 0;
  double detection_seconds = 0.5;
  double restart_seconds = 2.0;
  int64_t checkpoint_every = 100;
  bool degraded = false;
  // --- elastic re-planning
  bool replan = false;           // re-partition over survivors instead of respawn/eject
  double replan_seconds = 0.5;   // partitioner + state-migration latency per re-plan
  bool join_enabled = false;     // admit a new worker mid-run
  int64_t join_at_minibatch = 0;
  int join_worker = 0;           // topology worker id joining (not in the initial plan)
};

struct SimOptions {
  ScheduleKind schedule = ScheduleKind::kOneFOneB;
  int64_t num_minibatches = 200;
  int gpipe_microbatches = 4;        // round size per flush (kGPipe / kPipeDreamFlush)
  // 1F1B in-flight depth: stage s runs at most max(1, override - s) forwards ahead; 0 = the
  // plan's startup depths. Above 1 it needs an unreplicated plan.
  int pipeline_depth_override = 0;
  // Virtual chunk-stages per physical worker for kInterleaved: the (straight) plan's
  // num_stages must be divisible by this, stage s runs on physical worker s mod
  // (num_stages / interleave_chunks), and each worker executes its chunks' ops in the
  // compiled order (src/schedule/program.h). 1 elsewhere.
  int interleave_chunks = 1;
  // Per-stage activation recomputation, mirroring the runtime: unset = the plan's per-stage
  // StageAssignment::recompute flags; set = a global override. A recomputing stage stashes
  // only its inbound boundary activation per in-flight minibatch (the memory model drops
  // the act * in_flight term) and re-runs its forward before each backward (backward time
  // grows by one forward).
  std::optional<bool> recompute;
  // Weight-update discipline, mirroring the runtime: unset = the plan's per-stage modes;
  // set = a global override. Affects the memory model (kStashing scales with the stash
  // depth, kDoubleBuffered is a constant 3x weights) — GPipe-family schedules are priced as
  // kNaive regardless.
  std::optional<WeightMode> weight_mode;
  // Gradient accumulation boundary (§3.3 aggregation / the 2BW minibatch): replicated
  // stages launch one weight-sync collective per `replicas * accumulation_steps` backwards
  // instead of per `replicas`.
  int accumulation_steps = 1;
  bool record_trace = false;
  int trace_worker_limit = 16;
  SimFault fault;                    // optional device-failure event
  // Transport cost model, matching the runtime's pluggable transport layer: a per-message
  // software overhead (serialize + frame + syscall) added to every inter-worker boundary
  // transfer, and an optional bandwidth cap below the topology's link rate (a framed byte
  // stream rarely reaches line rate). Zero means "free"/"uncapped" — the in-proc transport.
  // bench_serving fits these from BENCH_serve.json so the simulator can price a socket
  // deployment without running one.
  double transport_latency_s = 0.0;
  double transport_bandwidth_bytes_per_s = 0.0;
  // Per-worker relative speed factors indexed by topology worker id (1.0 = the profile's
  // reference device; 0.5 = half speed, so compute takes 2x). Empty = uniform. Replica
  // compute time scales by 1/speed; re-plans feed these to PartitionHeterogeneous.
  std::vector<double> worker_speeds;
};

struct SimResult {
  double total_seconds = 0.0;                 // makespan of the whole run
  double throughput_samples_per_sec = 0.0;    // steady-state, measured over the back half
  double comm_bytes_total = 0.0;              // activations + gradients + weight sync
  std::vector<double> worker_utilization;     // busy fraction per worker
  std::vector<int64_t> worker_peak_memory;    // bytes, per worker
  std::vector<int> stage_peak_stash;          // max in-flight minibatches per stage
  ExecutionTrace trace;                       // populated when record_trace is set
  // --- failure accounting (only meaningful when options.fault fired)
  double fault_seconds = -1.0;                // virtual time the device died
  double recovery_seconds = -1.0;             // virtual time the pipeline resumed
  int64_t reexecuted_minibatches = 0;         // completed work rolled back by the restart
  double post_recovery_throughput_samples_per_sec = 0.0;  // steady state after recovery
  // --- elastic accounting (only meaningful when fault.replan / fault.join_enabled fired)
  int replans = 0;                            // partitioner re-runs (death + join events)
  double replan_latency_seconds = 0.0;        // total replan_seconds charged
  PipelinePlan final_plan;                    // the plan the run finished under
};

SimResult SimulatePipeline(const ModelProfile& profile, const PipelinePlan& plan,
                           const HardwareTopology& topology, const SimOptions& options = {});

// Data-parallel BSP with wait-free backpropagation: per-layer gradient all_reduce chunks are
// enqueued as each layer's backward completes and overlap with the remaining backward
// compute; the next iteration's forward waits for both. Returns per-iteration stall
// accounting — the generator for Figure 1.
struct DataParallelResult {
  double iteration_seconds = 0.0;       // steady-state wall time per iteration
  double compute_seconds = 0.0;         // single-worker fwd+bwd time
  double stall_seconds = 0.0;           // communication not hidden by compute
  double comm_overhead_fraction = 0.0;  // stall / iteration (the Figure 1 metric)
  double throughput_samples_per_sec = 0.0;  // workers * minibatch / iteration
  double comm_bytes_per_sample = 0.0;
};

DataParallelResult SimulateDataParallelBsp(const ModelProfile& profile,
                                           const HardwareTopology& topology, int workers);

}  // namespace pipedream

#endif  // SRC_SIMEXEC_PIPELINE_SIM_H_
