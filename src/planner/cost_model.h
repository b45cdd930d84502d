// The communication-time model shared by the partitioner's DPs, the predictor, the pipeline
// simulator and the wait-free-backprop DP simulator — one implementation of each formula, as
// memory_model.h is for memory, so planner-priced and sim-priced times agree by construction.
//
// Sync term. §3.1 writes a replicated stage's weight synchronization as 2(m-1)·Σ|w|/B inside
// the max. A ring all_reduce moves 2(m-1)/m·|w| per worker per round of m minibatches, so
// over per-participant links (NVLink lanes, per-server NICs) its *wall* time per round is
// 2(m-1)|w|/(m B): one factor of m below the literal expression. Read literally, the paper
// prices a shared bus at every level, which contradicts its own measured baselines
// (per-server NICs); the ring form matches them and is what NCCL/Gloo implement.
// TopologyLevel::shared_bus restores the literal form for genuinely shared media (PCIe
// trees). DESIGN.md §2b records the substitution.
//
// Upper-level amortization. In the hierarchical DP a level-k "worker" is a whole level-(k-1)
// component of unit_size devices, so one level-k sync round aggregates gradients from units
// that each processed unit_size minibatches, and its wall time amortizes over m · unit_size
// minibatches (SolveLevel divides SyncWallSeconds by unit_size). Without this the recurrence
// under-amortizes collectives at upper levels by the component size.
#ifndef SRC_PLANNER_COST_MODEL_H_
#define SRC_PLANNER_COST_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/topology.h"

namespace pipedream {

// The outermost (slowest) level any pair of `workers` must cross; 1 when none does.
inline int BottleneckLevel(const HardwareTopology& topology, const std::vector<int>& workers) {
  int worst = 1;
  for (size_t a = 0; a < workers.size(); ++a) {
    for (size_t b = a + 1; b < workers.size(); ++b) {
      worst = std::max(worst, topology.SharedLevel(workers[a], workers[b]));
    }
  }
  return worst;
}

// Bytes one all_reduce over `replicas` gradients of `bytes` each puts on the wire: every
// participant sends 2(m-1)/m·|w|.
inline double RingAllReduceBytes(int replicas, int64_t bytes) {
  return 2.0 * static_cast<double>(replicas - 1) * static_cast<double>(bytes);
}

// Wall time of one sync round: a ring over per-participant links, or the same traffic
// serialized on a shared bus.
inline double SyncWallSeconds(int replicas, int64_t bytes, double collective_bandwidth,
                              bool shared_bus) {
  const double divisor = shared_bus ? 1.0 : static_cast<double>(replicas);
  return RingAllReduceBytes(replicas, bytes) / (divisor * collective_bandwidth);
}

// One minibatch's activation forward plus its gradient backward across a stage boundary.
inline double BoundaryRoundTripSeconds(int64_t bytes, double p2p_bandwidth) {
  return 2.0 * static_cast<double>(bytes) / p2p_bandwidth;
}

}  // namespace pipedream

#endif  // SRC_PLANNER_COST_MODEL_H_
