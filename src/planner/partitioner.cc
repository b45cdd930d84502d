#include "src/planner/partitioner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "src/common/logging.h"
#include "src/planner/cost_model.h"
#include "src/planner/memory_model.h"

namespace pipedream {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One level's dynamic-programming tables: A[i][j][m] is the time taken by the slowest stage
// of the optimal pipeline over layers i..j (inclusive) using m workers, where a "worker" is
// one component of the level below. Choice records how each optimum was achieved.
struct Choice {
  int split = -1;          // -1: single stage over the whole range; else last stage starts at split+1
  int right_workers = 0;   // workers given to the last stage when split >= 0
};

class DpTables {
 public:
  DpTables(int n, int mmax)
      : n_(n), mmax_(mmax), a_(static_cast<size_t>(n) * n * mmax, kInf),
        choice_(static_cast<size_t>(n) * n * mmax) {}

  double& A(int i, int j, int m) { return a_[Index(i, j, m)]; }
  double A(int i, int j, int m) const { return a_[Index(i, j, m)]; }
  Choice& choice(int i, int j, int m) { return choice_[Index(i, j, m)]; }
  const Choice& choice(int i, int j, int m) const { return choice_[Index(i, j, m)]; }

  int mmax() const { return mmax_; }

 private:
  size_t Index(int i, int j, int m) const {
    PD_DCHECK(i >= 0 && i < n_ && j >= 0 && j < n_ && m >= 1 && m <= mmax_);
    return (static_cast<size_t>(i) * n_ + j) * mmax_ + (m - 1);
  }

  int n_;
  int mmax_;
  std::vector<double> a_;
  std::vector<Choice> choice_;
};

// Solves one level of the §3.1 recurrence for every start layer, as PartitionHierarchical's
// lower levels need.
//   substrate(i, j): compute time of layers i..j on a single worker of this level
//                    (level 1: sum of T_l; level k: A_{k-1}(i -> j, m_{k-1})).
//   T(i,j,m) = (1/m) max(substrate(i,j), SyncWallSeconds(m, sum_w(i,j)) / unit_size)
//   A(i,j,m) = min(T(i,j,m), min_{s,m'} max(A(i,s,m-m'), 2 a_s / B_p2p, T(s+1,j,m')))
// `unit_size` is the number of actual workers inside one substrate component (1 at level 1);
// cost_model.h derives the ring form of the sync term and its upper-level amortization.
DpTables SolveLevel(const ModelProfile& profile,
                    const std::function<double(int, int)>& substrate, int mmax,
                    double collective_bandwidth, double p2p_bandwidth, bool shared_bus,
                    int unit_size, const PartitionerOptions& options) {
  const int n = profile.num_layers();
  DpTables tables(n, mmax);

  // Prefix sums for O(1) range weight queries.
  std::vector<double> weight_prefix(static_cast<size_t>(n + 1), 0.0);
  for (int l = 0; l < n; ++l) {
    weight_prefix[static_cast<size_t>(l + 1)] =
        weight_prefix[static_cast<size_t>(l)] +
        static_cast<double>(profile.layers[static_cast<size_t>(l)].param_bytes);
  }
  auto range_weight = [&](int i, int j) {
    return weight_prefix[static_cast<size_t>(j + 1)] - weight_prefix[static_cast<size_t>(i)];
  };
  // Rejects stages that cannot fit on a device even with a single in-flight minibatch:
  // weights + gradients + one weight stash + one activation stash.
  auto stage_fits = [&](int i, int j) -> bool {
    if (options.device_memory_bytes <= 0) {
      return true;
    }
    const int64_t weights = static_cast<int64_t>(range_weight(i, j));
    const int64_t activations = profile.ActivationBytes(i, j + 1);
    return 3 * weights + activations <= options.device_memory_bytes;
  };
  // Each layer range's compute and fit test, evaluated once: the recurrence below asks for
  // a range once per worker count and split.
  std::vector<double> range_compute(static_cast<size_t>(n) * n, kInf);
  std::vector<char> range_fits(static_cast<size_t>(n) * n, 0);
  auto range_index = [n](int i, int j) { return static_cast<size_t>(i) * n + j; };
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      range_compute[range_index(i, j)] = substrate(i, j);
      range_fits[range_index(i, j)] = stage_fits(i, j);
    }
  }
  // Single-stage (possibly replicated) time per the T^k formula.
  auto stage_time = [&](int i, int j, int m) -> double {
    const double compute = range_compute[range_index(i, j)];
    if (compute == kInf || !range_fits[range_index(i, j)]) {
      return kInf;
    }
    if (m == 1) {
      return compute;
    }
    if (!options.allow_replication) {
      return kInf;
    }
    const double sync = SyncWallSeconds(m, static_cast<int64_t>(range_weight(i, j)),
                                        collective_bandwidth, shared_bus) /
                        static_cast<double>(unit_size);
    return std::max(compute, sync) / static_cast<double>(m);
  };

  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      for (int m = 1; m <= mmax; ++m) {
        // Option 1: the whole range as one (replicated) stage.
        double best = stage_time(i, j, m);
        Choice best_choice;
        // Option 2: optimal sub-pipeline over i..s plus a single stage s+1..j.
        for (int s = i; s < j; ++s) {
          const double boundary =
              BoundaryRoundTripSeconds(profile.BoundaryActivationBytes(s), p2p_bandwidth);
          for (int mp = 1; mp < m; ++mp) {
            const double left = tables.A(i, s, m - mp);
            if (left == kInf) {
              continue;
            }
            const double right = stage_time(s + 1, j, mp);
            if (right == kInf) {
              continue;
            }
            const double candidate = std::max({left, boundary, right});
            if (candidate < best) {
              best = candidate;
              best_choice.split = s;
              best_choice.right_workers = mp;
            }
          }
        }
        tables.A(i, j, m) = best;
        tables.choice(i, j, m) = best_choice;
      }
    }
  }
  return tables;
}

// Recursively expands one level's choice tree into a flat stage list. `components` is one
// contiguous worker-id block per level-(k-1) component available to this range.
// `expand_component` renders layers i..j onto a single component (level 1: a leaf stage;
// level k: the lower level's reconstruction).
void ReconstructLevel(
    const DpTables& tables, int i, int j, int m,
    const std::vector<std::vector<int>>& components,
    const std::function<void(int, int, const std::vector<int>&, std::vector<StageAssignment>*)>&
        expand_component,
    std::vector<StageAssignment>* out) {
  PD_CHECK_EQ(static_cast<int>(components.size()), m);
  const Choice& choice = tables.choice(i, j, m);
  if (choice.split < 0) {
    // Single stage replicated over the m components: expand the range onto the first
    // component, then mirror the resulting stage structure onto the remaining components.
    std::vector<StageAssignment> inner;
    expand_component(i, j, components[0], &inner);
    for (int c = 1; c < m; ++c) {
      std::vector<StageAssignment> mirror;
      expand_component(i, j, components[static_cast<size_t>(c)], &mirror);
      PD_CHECK_EQ(mirror.size(), inner.size());
      for (size_t s = 0; s < inner.size(); ++s) {
        PD_CHECK_EQ(mirror[s].begin_layer, inner[s].begin_layer);
        inner[s].replicas += mirror[s].replicas;
        inner[s].workers.insert(inner[s].workers.end(), mirror[s].workers.begin(),
                                mirror[s].workers.end());
      }
    }
    out->insert(out->end(), inner.begin(), inner.end());
    return;
  }
  // Left sub-pipeline over the first m - m' components, then the last stage on the rest.
  const int mp = choice.right_workers;
  std::vector<std::vector<int>> left_components(components.begin(),
                                                components.end() - mp);
  std::vector<std::vector<int>> right_components(components.end() - mp, components.end());
  ReconstructLevel(tables, i, choice.split, m - mp, left_components, expand_component, out);
  // The right side is a single stage over m' components — same mirroring as above.
  std::vector<StageAssignment> inner;
  expand_component(choice.split + 1, j, right_components[0], &inner);
  for (int c = 1; c < mp; ++c) {
    std::vector<StageAssignment> mirror;
    expand_component(choice.split + 1, j, right_components[static_cast<size_t>(c)], &mirror);
    PD_CHECK_EQ(mirror.size(), inner.size());
    for (size_t s = 0; s < inner.size(); ++s) {
      inner[s].replicas += mirror[s].replicas;
      inner[s].workers.insert(inner[s].workers.end(), mirror[s].workers.begin(),
                              mirror[s].workers.end());
    }
  }
  out->insert(out->end(), inner.begin(), inner.end());
}

// One DP pass over a fixed worker order: H[j][c] is the slowest-stage time of the best
// pipeline covering layers 0..j (inclusive) using exactly the first c workers of `order`,
// where every stage is a contiguous block of the order. With unit speeds this is SolveLevel's
// start-at-layer-0 row: the same recurrence, in the same loop order, on the same doubles.
// HetChoice records the last stage's layer split and worker count for reconstruction.
struct HetChoice {
  int split = -1;       // -1: single stage over layers 0..j; else last stage starts at split+1
  int right_workers = 0;  // workers in the last stage's block when split >= 0
};

struct HetSolution {
  double bottleneck = kInf;
  std::vector<StageAssignment> stages;
};

HetSolution SolveHeterogeneousOrdered(const ModelProfile& profile,
                                      const std::vector<WorkerSpec>& specs,
                                      const std::vector<int>& order, double bandwidth,
                                      const PartitionerOptions& options) {
  const int n = profile.num_layers();
  const int w = static_cast<int>(order.size());
  const double coll_bw = bandwidth * options.collective_efficiency;
  const double p2p_bw = bandwidth * options.p2p_efficiency;

  // Block [a, b) aggregate: the slowest member gates the round-robin round.
  std::vector<double> min_speed(static_cast<size_t>(w) * (w + 1), 0.0);
  auto block_index = [w](int a, int b) { return static_cast<size_t>(a) * (w + 1) + b; };
  for (int a = 0; a < w; ++a) {
    double speed = kInf;
    for (int b = a + 1; b <= w; ++b) {
      speed = std::min(speed, specs[static_cast<size_t>(order[static_cast<size_t>(b - 1)])].speed);
      min_speed[block_index(a, b)] = speed;
    }
  }

  // A layer range's sums, which every worker block hosting it shares. Stages that cannot fit
  // even one in-flight minibatch (weights + gradients + one weight stash + one activation
  // stash) are rejected, as in SolveLevel.
  struct RangeSums {
    double compute = 0.0;
    int64_t weights = 0;
    bool fits = true;
  };
  auto range_sums = [&](int i, int j) {
    RangeSums range;
    range.compute = profile.ComputeSeconds(i, j + 1);
    range.weights = profile.ParamBytes(i, j + 1);
    range.fits = options.device_memory_bytes <= 0 ||
                 3 * range.weights + profile.ActivationBytes(i, j + 1) <=
                     options.device_memory_bytes;
    return range;
  };
  // Stage over a layer range replicated across the worker block [a, b) of the order.
  auto stage_time = [&](const RangeSums& range, int a, int b) -> double {
    if (!range.fits) {
      return kInf;
    }
    const int m = b - a;
    const double compute = range.compute / min_speed[block_index(a, b)];
    if (m == 1) {
      return compute;
    }
    if (!options.allow_replication) {
      return kInf;
    }
    const double sync =
        SyncWallSeconds(m, range.weights, coll_bw, options.collective_shared_bus);
    return std::max(compute, sync) / static_cast<double>(m);
  };
  std::vector<double> boundary(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    boundary[static_cast<size_t>(s)] =
        BoundaryRoundTripSeconds(profile.BoundaryActivationBytes(s), p2p_bw);
  }

  std::vector<double> best(static_cast<size_t>(n) * (w + 1), kInf);
  std::vector<HetChoice> choice(static_cast<size_t>(n) * (w + 1));
  auto dp_index = [w](int j, int c) { return static_cast<size_t>(j) * (w + 1) + c; };
  // ending_at_j[i]: the sums of layers [i..j], computed once per (i, j) rather than once per
  // worker block.
  std::vector<RangeSums> ending_at_j(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) {
      ending_at_j[static_cast<size_t>(i)] = range_sums(i, j);
    }
    for (int c = 1; c <= w; ++c) {
      double b = stage_time(ending_at_j[0], 0, c);
      HetChoice ch;
      for (int s = 0; s < j; ++s) {
        const RangeSums& right_range = ending_at_j[static_cast<size_t>(s) + 1];
        for (int mp = 1; mp < c; ++mp) {
          const double left = best[dp_index(s, c - mp)];
          if (left >= kInf) {
            continue;
          }
          const double right = stage_time(right_range, c - mp, c);
          if (right >= kInf) {
            continue;
          }
          const double candidate =
              std::max({left, boundary[static_cast<size_t>(s)], right});
          if (candidate < b) {
            b = candidate;
            ch.split = s;
            ch.right_workers = mp;
          }
        }
      }
      best[dp_index(j, c)] = b;
      choice[dp_index(j, c)] = ch;
    }
  }

  HetSolution solution;
  solution.bottleneck = best[dp_index(n - 1, w)];
  if (solution.bottleneck >= kInf) {
    return solution;
  }
  // Reconstruct back to front: each stage is a block [c - right, c) of the order.
  std::vector<StageAssignment> reversed;
  int j = n - 1;
  int c = w;
  while (true) {
    const HetChoice& ch = choice[dp_index(j, c)];
    StageAssignment stage;
    if (ch.split < 0) {
      stage.begin_layer = 0;
      stage.end_layer = j + 1;
      stage.replicas = c;
      stage.workers.assign(order.begin(), order.begin() + c);
      std::sort(stage.workers.begin(), stage.workers.end());
      reversed.push_back(std::move(stage));
      break;
    }
    stage.begin_layer = ch.split + 1;
    stage.end_layer = j + 1;
    stage.replicas = ch.right_workers;
    stage.workers.assign(order.begin() + (c - ch.right_workers), order.begin() + c);
    std::sort(stage.workers.begin(), stage.workers.end());
    reversed.push_back(std::move(stage));
    j = ch.split;
    c -= ch.right_workers;
  }
  solution.stages.assign(reversed.rbegin(), reversed.rend());
  return solution;
}

// The common tail of every Partition* entry point: validate the plan, then run the
// memory post-passes.
PartitionResult FinishPartition(const ModelProfile& profile, std::vector<StageAssignment> stages,
                                double bottleneck_seconds, const PartitionerOptions& options) {
  PartitionResult result;
  result.plan = PipelinePlan(std::move(stages));
  result.plan.Validate(profile.num_layers());
  result.bottleneck_seconds = bottleneck_seconds;
  ChooseWeightModes(profile, options.device_memory_bytes, &result.plan);
  ChooseRecompute(profile, options.device_memory_bytes, &result.plan);
  return result;
}

}  // namespace

PartitionResult PartitionFlat(const ModelProfile& profile, int workers,
                              double bandwidth_bytes_per_sec,
                              const PartitionerOptions& options) {
  PD_CHECK_GE(workers, 1);
  PD_CHECK_GT(bandwidth_bytes_per_sec, 0.0);
  const int usable =
      options.max_workers_used > 0 ? std::min(workers, options.max_workers_used) : workers;
  // Identical unit-speed devices in id order.
  std::vector<int> order(static_cast<size_t>(usable));
  std::iota(order.begin(), order.end(), 0);
  HetSolution solution =
      SolveHeterogeneousOrdered(profile, std::vector<WorkerSpec>(order.size()), order,
                                bandwidth_bytes_per_sec, options);
  PD_CHECK(solution.bottleneck < kInf)
      << "no feasible partition of " << profile.model_name << " over " << usable << " workers";
  return FinishPartition(profile, std::move(solution.stages), solution.bottleneck, options);
}

PartitionResult PartitionHeterogeneous(const ModelProfile& profile,
                                       const std::vector<WorkerSpec>& workers,
                                       double bandwidth_bytes_per_sec,
                                       const PartitionerOptions& options) {
  PD_CHECK(!workers.empty());
  PD_CHECK_GT(bandwidth_bytes_per_sec, 0.0);

  // Worker ids sorted fastest-first; an optional cap keeps the fastest devices.
  std::vector<int> by_speed(workers.size());
  std::iota(by_speed.begin(), by_speed.end(), 0);
  std::stable_sort(by_speed.begin(), by_speed.end(), [&](int a, int b) {
    return workers[static_cast<size_t>(a)].speed > workers[static_cast<size_t>(b)].speed;
  });
  if (options.max_workers_used > 0 &&
      static_cast<int>(by_speed.size()) > options.max_workers_used) {
    by_speed.resize(static_cast<size_t>(options.max_workers_used));
  }
  for (int id : by_speed) {
    PD_CHECK_GT(workers[static_cast<size_t>(id)].speed, 0.0)
        << "worker " << id << " has non-positive speed";
  }

  // Contiguous blocks of the speed-sorted order, tried in both directions (fastest-first
  // puts fast workers on the deep input stages; slowest-first the reverse).
  HetSolution best = SolveHeterogeneousOrdered(profile, workers, by_speed,
                                               bandwidth_bytes_per_sec, options);
  std::vector<int> reversed(by_speed.rbegin(), by_speed.rend());
  HetSolution alt = SolveHeterogeneousOrdered(profile, workers, reversed,
                                              bandwidth_bytes_per_sec, options);
  if (alt.bottleneck < best.bottleneck) {
    best = std::move(alt);
  }
  PD_CHECK(best.bottleneck < kInf)
      << "no feasible heterogeneous partition of " << profile.model_name << " over "
      << by_speed.size() << " workers";
  return FinishPartition(profile, std::move(best.stages), best.bottleneck, options);
}

PartitionResult PartitionHierarchical(const ModelProfile& profile,
                                      const HardwareTopology& topology,
                                      const PartitionerOptions& options) {
  const int n = profile.num_layers();
  const int num_levels = topology.num_levels();
  PD_CHECK_GE(num_levels, 1);

  // Solve bottom-up: level k's substrate is level k-1's optimum on a full component.
  std::vector<DpTables> per_level;
  per_level.reserve(static_cast<size_t>(num_levels));
  for (int k = 1; k <= num_levels; ++k) {
    const int mk = topology.level(k).fanout;
    const double coll_bw = topology.level(k).effective_collective_bandwidth();
    const double p2p_bw = topology.level(k).effective_p2p_bandwidth();
    std::function<double(int, int)> substrate;
    if (k == 1) {
      substrate = [&profile](int i, int j) { return profile.ComputeSeconds(i, j + 1); };
    } else {
      const DpTables& below = per_level.back();
      const int below_m = below.mmax();
      substrate = [&below, below_m](int i, int j) { return below.A(i, j, below_m); };
    }
    per_level.push_back(SolveLevel(profile, substrate, mk, coll_bw, p2p_bw,
                                   topology.level(k).shared_bus,
                                   topology.WorkersPerComponent(k - 1), options));
  }

  // Expansion functions, one per level, built top-down over the recursion.
  // expand[k](i, j, component_workers, out) renders layers i..j on one level-k component.
  std::vector<std::function<void(int, int, const std::vector<int>&,
                                 std::vector<StageAssignment>*)>>
      expand(static_cast<size_t>(num_levels + 1));
  expand[0] = [](int i, int j, const std::vector<int>& component,
                 std::vector<StageAssignment>* out) {
    PD_CHECK_EQ(component.size(), 1u);
    StageAssignment s;
    s.begin_layer = i;
    s.end_layer = j + 1;
    s.replicas = 1;
    s.workers = component;
    out->push_back(std::move(s));
  };
  for (int k = 1; k <= num_levels; ++k) {
    const DpTables& tables = per_level[static_cast<size_t>(k - 1)];
    const int fanout = topology.level(k).fanout;
    const auto& expand_below = expand[static_cast<size_t>(k - 1)];
    expand[static_cast<size_t>(k)] = [&tables, fanout, &expand_below](
                                         int i, int j, const std::vector<int>& component,
                                         std::vector<StageAssignment>* out) {
      // Split this component's workers into its level-(k-1) sub-components.
      PD_CHECK_EQ(static_cast<int>(component.size()) % fanout, 0);
      const size_t per = component.size() / static_cast<size_t>(fanout);
      std::vector<std::vector<int>> sub_components;
      sub_components.reserve(static_cast<size_t>(fanout));
      for (int c = 0; c < fanout; ++c) {
        sub_components.emplace_back(component.begin() + static_cast<long>(c * per),
                                    component.begin() + static_cast<long>((c + 1) * per));
      }
      ReconstructLevel(tables, i, j, fanout, sub_components, expand_below, out);
    };
  }

  const DpTables& top = per_level.back();
  const int top_m = topology.level(num_levels).fanout;
  PD_CHECK(top.A(0, n - 1, top_m) < kInf)
      << "no feasible hierarchical partition of " << profile.model_name;

  std::vector<int> all_workers(static_cast<size_t>(topology.num_workers()));
  for (int w = 0; w < topology.num_workers(); ++w) {
    all_workers[static_cast<size_t>(w)] = w;
  }
  std::vector<StageAssignment> stages;
  expand[static_cast<size_t>(num_levels)](0, n - 1, all_workers, &stages);
  return FinishPartition(profile, std::move(stages), top.A(0, n - 1, top_m), options);
}

PartitionResult Partition(const ModelProfile& profile, const HardwareTopology& topology,
                          const PartitionerOptions& options) {
  // The hierarchical solver composes optimal sub-pipelines per level (§3.1), but its
  // replication factors are constrained to whole lower-level components — the paper's
  // "15-1" on a 4x4 cluster is not expressible that way. Solve both the hierarchical and a
  // flat relaxation (every worker pair charged the outermost level's link), then keep the
  // plan with the lower bottleneck.
  PartitionResult best = PartitionHierarchical(profile, topology, options);
  if (topology.num_levels() > 1) {
    const TopologyLevel& outer = topology.level(topology.num_levels());
    PartitionerOptions flat_options = options;
    flat_options.collective_efficiency = outer.collective_efficiency;
    flat_options.p2p_efficiency = outer.p2p_efficiency;
    flat_options.collective_shared_bus = outer.shared_bus;
    const PartitionResult flat = PartitionFlat(profile, topology.num_workers(),
                                               outer.bandwidth_bytes_per_sec, flat_options);
    if (flat.bottleneck_seconds < best.bottleneck_seconds) {
      best = flat;
    }
  }
  return best;
}

int ChooseWeightModes(const ModelProfile& profile, int64_t device_memory_bytes,
                      PipelinePlan* plan) {
  if (device_memory_bytes <= 0 || plan->num_stages() == 0) {
    return 0;
  }
  const int num_stages = plan->num_stages();
  const int noam = plan->Noam();
  std::vector<StageAssignment> stages = plan->stages();
  int flipped = 0;
  for (int s = 0; s < num_stages; ++s) {
    StageAssignment& stage = stages[static_cast<size_t>(s)];
    // 1F1B stash depth at this stage (the predictor's shared model in memory_model.h): the
    // input stage holds NOAM in-flight minibatches, tapering to 1 at the output.
    const int in_flight =
        InFlightDepth(noam, num_stages, s, ScheduleKind::kOneFOneB, /*flush_microbatches=*/1);
    const int64_t weights = profile.ParamBytes(stage.begin_layer, stage.end_layer);
    const int64_t activations = profile.ActivationBytes(stage.begin_layer, stage.end_layer);
    const int64_t stashing_peak =
        StagePeakMemoryBytes(weights, activations, /*boundary_in_bytes=*/0,
                             WeightMode::kStashing, /*recompute=*/false, in_flight);
    if (stashing_peak > device_memory_bytes) {
      // 2BW footprint (weights * 3 + activation stashes) is what the DP's stage_fits
      // admitted, so the flipped stage is guaranteed to fit.
      stage.weight_mode = WeightMode::kDoubleBuffered;
      ++flipped;
    }
  }
  if (flipped > 0) {
    *plan = PipelinePlan(std::move(stages));
  }
  return flipped;
}

int ChooseRecompute(const ModelProfile& profile, int64_t device_memory_bytes,
                    PipelinePlan* plan) {
  if (device_memory_bytes <= 0 || plan->num_stages() == 0) {
    return 0;
  }
  const int num_stages = plan->num_stages();
  const int noam = plan->Noam();
  std::vector<StageAssignment> stages = plan->stages();
  int flipped = 0;
  for (int s = 0; s < num_stages; ++s) {
    StageAssignment& stage = stages[static_cast<size_t>(s)];
    const int in_flight =
        InFlightDepth(noam, num_stages, s, ScheduleKind::kOneFOneB, /*flush_microbatches=*/1);
    const int64_t weights = profile.ParamBytes(stage.begin_layer, stage.end_layer);
    const int64_t activations = profile.ActivationBytes(stage.begin_layer, stage.end_layer);
    const int64_t boundary_in =
        s > 0 ? profile.BoundaryActivationBytes(stages[static_cast<size_t>(s - 1)].end_layer - 1)
              : 0;
    const int64_t current_peak = StagePeakMemoryBytes(
        weights, activations, boundary_in, stage.weight_mode, stage.recompute, in_flight);
    if (current_peak <= device_memory_bytes || stage.recompute) {
      continue;
    }
    // Still busting the budget after weight-mode selection: drop the stash term if that
    // actually shrinks the peak (it always does unless the stage's working set is a single
    // boundary-sized activation already).
    const int64_t recompute_peak = StagePeakMemoryBytes(
        weights, activations, boundary_in, stage.weight_mode, /*recompute=*/true, in_flight);
    if (recompute_peak < current_peak) {
      stage.recompute = true;
      ++flipped;
    }
  }
  if (flipped > 0) {
    *plan = PipelinePlan(std::move(stages));
  }
  return flipped;
}

}  // namespace pipedream
