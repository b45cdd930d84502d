#include "src/planner/predictor.h"

#include <algorithm>
#include <cmath>

#include "src/planner/cost_model.h"
#include "src/planner/memory_model.h"

namespace pipedream {
namespace {

// Slowest effective point-to-point link between any worker of one stage and any of the next.
double MinCrossP2pBandwidth(const HardwareTopology& topology, const std::vector<int>& from,
                            const std::vector<int>& to) {
  double min_bw = 1e300;
  for (int a : from) {
    for (int b : to) {
      if (a != b) {
        min_bw = std::min(min_bw, topology.EffectiveP2pBandwidthBetween(a, b));
      }
    }
  }
  return min_bw;
}

}  // namespace

PlanPrediction PredictPlan(const ModelProfile& profile, const PipelinePlan& plan,
                           const HardwareTopology& topology, const ScheduleSpec& schedule,
                           const std::vector<WorkerSpec>& workers) {
  plan.Validate(profile.num_layers());
  // Compute on a replicated stage proceeds at the pace of its slowest member: round-robin
  // hands every replica an equal share, so the round closes when the slowest finishes.
  auto stage_speed = [&](const StageAssignment& stage) -> double {
    if (workers.empty()) {
      return 1.0;
    }
    double speed = 1e300;
    for (int w : stage.workers) {
      PD_CHECK(w >= 0 && w < static_cast<int>(workers.size()))
          << "plan worker " << w << " outside the WorkerSpec set";
      speed = std::min(speed, workers[static_cast<size_t>(w)].speed);
    }
    PD_CHECK_GT(speed, 0.0);
    return speed;
  };
  const int num_stages = plan.num_stages();
  const int noam = plan.Noam();
  const int64_t batch = profile.minibatch_size;
  const bool flush_family = IsFlushFamily(schedule.kind);
  const bool interleaved = schedule.kind == ScheduleKind::kInterleaved;
  const int chunks = interleaved ? schedule.interleave_chunks : 1;
  if (interleaved) {
    PD_CHECK(plan.IsStraight()) << "interleaved schedules need an unreplicated plan";
    PD_CHECK_GE(chunks, 1);
    PD_CHECK(num_stages % chunks == 0)
        << "interleaving needs num_stages (" << num_stages << ") divisible by chunks ("
        << chunks << ")";
  }
  const int physical_workers = interleaved ? num_stages / chunks : num_stages;

  PlanPrediction prediction;
  prediction.stages.resize(static_cast<size_t>(num_stages));

  double bottleneck = 0.0;
  double bytes_per_minibatch = 0.0;
  // Interleaved accounting: a physical worker hosts chunk-stages {w, W + w, ...}, so its
  // occupancy and memory are sums over those chunks, not a single stage's.
  std::vector<double> worker_occupancy(static_cast<size_t>(physical_workers), 0.0);
  std::vector<int64_t> worker_memory(static_cast<size_t>(physical_workers), 0);

  for (int s = 0; s < num_stages; ++s) {
    const StageAssignment& stage = plan.stage(s);
    StagePrediction& sp = prediction.stages[static_cast<size_t>(s)];
    const int m = stage.replicas;

    sp.compute_seconds =
        profile.ComputeSeconds(stage.begin_layer, stage.end_layer) / stage_speed(stage);
    sp.weight_bytes = profile.ParamBytes(stage.begin_layer, stage.end_layer);
    sp.activation_stash_bytes = profile.ActivationBytes(stage.begin_layer, stage.end_layer);

    // Recompute trades ~1 extra stage-forward per minibatch for dropping the stash term.
    sp.recompute = schedule.recompute.value_or(stage.recompute);
    if (sp.recompute) {
      double fwd_seconds = 0.0;
      for (int l = stage.begin_layer; l < stage.end_layer; ++l) {
        fwd_seconds += profile.layers[static_cast<size_t>(l)].fwd_seconds;
      }
      sp.compute_seconds += fwd_seconds / stage_speed(stage);
    }

    if (m > 1) {
      // All_reduce wall time per round of m minibatches, at the slowest level the stage's
      // replicas span (the §3.1 sync term in its ring form — see cost_model.h).
      const TopologyLevel& level = topology.level(BottleneckLevel(topology, stage.workers));
      sp.sync_seconds = SyncWallSeconds(m, sp.weight_bytes,
                                        level.effective_collective_bandwidth(), level.shared_bus);
      // One collective per round of m minibatches, so each minibatch carries 1/m of its bytes.
      bytes_per_minibatch += RingAllReduceBytes(m, sp.weight_bytes) / static_cast<double>(m);
    }
    sp.effective_seconds = std::max(sp.compute_seconds, sp.sync_seconds) / m;
    if (interleaved) {
      worker_occupancy[static_cast<size_t>(s % physical_workers)] += sp.effective_seconds;
    } else {
      bottleneck = std::max(bottleneck, sp.effective_seconds);
    }

    if (s > 0) {
      const StageAssignment& prev = plan.stage(s - 1);
      const int64_t boundary_bytes = profile.BoundaryActivationBytes(prev.end_layer - 1);
      const double bw = MinCrossP2pBandwidth(topology, prev.workers, stage.workers);
      sp.input_comm_seconds = BoundaryRoundTripSeconds(boundary_bytes, bw);
      bottleneck = std::max(bottleneck, sp.input_comm_seconds);
      // Forward activations + backward gradients cross the boundary once per minibatch.
      bytes_per_minibatch += 2.0 * static_cast<double>(boundary_bytes);
    }

    // Stash depth and peak memory come from the shared model (memory_model.h): the schedule
    // sets how many minibatches are live at this stage, the weight mode sets the number of
    // weight copies, and recompute swaps the act * in_flight stash for boundary_in *
    // in_flight + one materialized working set. Flush-family schedules are priced under
    // kNaive — no update commits inside a round, so the runtime forces it.
    sp.in_flight =
        InFlightDepth(noam, num_stages, s, schedule.kind, schedule.flush_microbatches);
    sp.weight_mode = flush_family ? WeightMode::kNaive : stage.weight_mode;
    const int64_t boundary_in =
        s > 0 ? profile.BoundaryActivationBytes(plan.stage(s - 1).end_layer - 1) : 0;
    sp.peak_memory_bytes =
        StagePeakMemoryBytes(sp.weight_bytes, sp.activation_stash_bytes, boundary_in,
                             sp.weight_mode, sp.recompute, sp.in_flight);
    worker_memory[static_cast<size_t>(interleaved ? s % physical_workers : s)] +=
        sp.peak_memory_bytes;
  }
  for (int64_t memory : worker_memory) {
    prediction.max_worker_memory_bytes = std::max(prediction.max_worker_memory_bytes, memory);
  }
  if (interleaved) {
    for (double occupancy : worker_occupancy) {
      bottleneck = std::max(bottleneck, occupancy);
    }
  }
  if (flush_family) {
    // Each round of m minibatches pays a full pipeline drain: (m + S - 1) slots of work for
    // m outputs, so the steady-state interval stretches by (m + S - 1) / m. kModelParallel
    // (m = 1) degenerates to no pipelining at all, factor S.
    const int m = schedule.kind == ScheduleKind::kModelParallel
                      ? 1
                      : std::max(1, schedule.flush_microbatches);
    bottleneck *= static_cast<double>(m + num_stages - 1) / static_cast<double>(m);
  }

  prediction.bottleneck_seconds = bottleneck;
  prediction.throughput_samples_per_sec =
      bottleneck > 0.0 ? static_cast<double>(batch) / bottleneck : 0.0;
  prediction.comm_bytes_per_sample = bytes_per_minibatch / static_cast<double>(batch);
  return prediction;
}

}  // namespace pipedream
