// Weight-stash memory vs pipeline depth: PipeDream weight stashing against PipeDream-2BW
// double buffering (the follow-up paper's constant-memory scheme).
//
// Usage: bench_2bw_memory [--json] [--smoke]
//   --json    emit a machine-readable report (the format stored in BENCH_2bw.json)
//   --smoke   tiny dataset / one timed epoch; fast enough for ctest (`ctest -L perf`)
//
// One fixed MLP is partitioned into straight pipelines of depth 2, 4, 6, 8 and trained for
// real under three weight disciplines:
//   full-clone  kStashing with zero-copy sharing disabled — every stash is a deep copy,
//               so materialized == logical bytes (the paper's naive cost model).
//   cow-stash   kStashing with pooled copy-on-write tensors (this repo's default): a stash
//               costs only the blocks the optimizer has overwritten since it was taken.
//   2bw         kDoubleBuffered with accumulation_steps = depth: one shadow buffer per
//               stage regardless of the in-flight depth.
// The claim under test: summed across stages, stashing's footprint grows linearly with
// depth (total ~ |w| * (d-1) / 2) while 2BW stays flat at exactly one extra copy of the
// model (total ~ |w|), because each stage's shadow is one buffer no matter how many
// minibatches are in flight. Throughput (minibatches/s) rides along for context.
//
// The second half of the report is the SCHEDULE FRONTIER (docs/SCHEDULES.md): the same
// model trained for real under every memory-relevant (schedule, weight-mode, recompute)
// cell — 1F1B + stashing, 1F1B + 2BW, 1F1B + 2BW + recompute, PipeDream-Flush (m = 4), and
// interleaved virtual stages (k = 2) — with three peak-memory numbers per cell:
//   measured   per-physical-worker bytes assembled from the runtime's own peaks
//              (2 |w| live+grad copies + logical weight-stash peak + activation peak)
//   sim        the event simulator's worker_peak_memory under identical options
//   predicted  PredictPlan's max_worker_memory_bytes (memory_model.h)
// plus a budget demo: the largest device budget that flush/recompute fit and plain
// stashing/2BW bust, proving the planner's new schedule dimension buys real (depth, memory)
// points. EXPERIMENTS.md's frontier section reads the "schedule_frontier" JSON emitted here.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/planner/predictor.h"
#include "src/profile/profiler.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/simexec/pipeline_sim.h"
#include "src/tensor/pool.h"

using namespace pipedream;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  int64_t logical_stash_bytes = 0;       // sum over stages of the full-clone-equivalent peak
  int64_t materialized_stash_bytes = 0;  // sum over stages of COW-aware peaks
  double minibatches_per_s = 0.0;
};

std::unique_ptr<Sequential> MakeModel(Rng* rng) {
  // 7 hidden layers -> 15 graph layers: enough to cut into 8 nonempty stages while the
  // total parameter count stays identical across depths.
  return BuildMlpClassifier(16, {64, 64, 64, 64, 64, 64, 64}, 3, rng);
}

ModeResult RunMode(const Dataset& data, int depth, WeightMode mode, bool zero_copy,
                   int timed_epochs) {
  BufferPool::SetZeroCopyEnabledForTesting(zero_copy ? 1 : 0);
  Rng rng(3);
  const auto model = MakeModel(&rng);
  const int layers = static_cast<int>(model->size());
  std::vector<int> cuts;
  for (int s = 1; s < depth; ++s) {
    cuts.push_back(std::max(1, layers * s / depth));
  }
  const auto plan = MakeStraightPlan(layers, cuts);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.01);
  PipelineTrainerOptions options;
  options.weight_mode = mode;
  // 2BW requires the accumulation boundary to cover the in-flight depth; stashing runs in
  // PipeDream's natural per-minibatch-update regime.
  options.accumulation_steps = mode == WeightMode::kDoubleBuffered ? depth : 1;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, /*batch=*/8, /*seed=*/5, options);

  trainer.TrainEpoch();  // warm-up: reaches steady state (and, for 2BW, the first flip)

  ModeResult result;
  double best_epoch_seconds = 1e30;
  int64_t epoch_minibatches = 0;
  for (int e = 0; e < timed_epochs; ++e) {
    const double t0 = NowSeconds();
    const EpochStats stats = trainer.TrainEpoch();
    best_epoch_seconds = std::min(best_epoch_seconds, NowSeconds() - t0);
    epoch_minibatches = stats.minibatches;
  }
  result.minibatches_per_s = static_cast<double>(epoch_minibatches) / best_epoch_seconds;
  for (int s = 0; s < plan.num_stages(); ++s) {
    result.logical_stash_bytes += trainer.StagePeakStashBytes(s);
    result.materialized_stash_bytes += trainer.StagePeakMaterializedStashBytes(s);
  }
  BufferPool::SetZeroCopyEnabledForTesting(-1);
  return result;
}

struct Row {
  int depth = 0;
  ModeResult full_clone;  // kStashing, zero-copy off
  ModeResult cow;         // kStashing, zero-copy on
  ModeResult two_bw;      // kDoubleBuffered, zero-copy on
};

// ---------------------------------------------------------------------------------------
// Schedule frontier: one (schedule, weight-mode, recompute) cell trained for real, priced
// by the simulator, and priced by the planner's predictor — all on the same plan.

struct FrontierCell {
  std::string name;
  int depth = 0;  // physical workers
  ScheduleKind schedule = ScheduleKind::kOneFOneB;
  WeightMode mode = WeightMode::kStashing;
  bool recompute = false;
  int chunks = 1;  // virtual chunk-stages per worker (kInterleaved)
  double minibatches_per_s = 0.0;
  int64_t measured_peak_bytes = 0;   // max per-physical-worker, runtime-measured
  int64_t sim_peak_bytes = 0;        // max worker_peak_memory from the event simulator
  int64_t predicted_peak_bytes = 0;  // PredictPlan max_worker_memory_bytes
};

PipelinePlan WithModes(const PipelinePlan& plan, WeightMode mode, bool recompute) {
  std::vector<StageAssignment> stages = plan.stages();
  for (StageAssignment& stage : stages) {
    stage.weight_mode = mode;
    stage.recompute = recompute;
  }
  return PipelinePlan(std::move(stages));
}

FrontierCell RunFrontierCell(const Dataset& data, const ModelProfile& profile,
                             const HardwareTopology& topo, int depth, const char* name,
                             ScheduleKind schedule, WeightMode mode, bool recompute,
                             int chunks, int timed_epochs) {
  FrontierCell cell;
  cell.name = name;
  cell.depth = depth;
  cell.schedule = schedule;
  cell.mode = mode;
  cell.recompute = recompute;
  cell.chunks = chunks;

  Rng rng(3);
  const auto model = MakeModel(&rng);
  const int layers = static_cast<int>(model->size());
  const int num_stages = schedule == ScheduleKind::kInterleaved ? chunks * depth : depth;
  // Every cell, interleaved chunk-stages included, is cut by layer count: a cut balanced on
  // the wall-clock profile moves from run to run, and the peaks move with it.
  std::vector<int> cuts;
  for (int s = 1; s < num_stages; ++s) {
    cuts.push_back(std::max(1, layers * s / num_stages));
  }
  const PipelinePlan plan = WithModes(MakeStraightPlan(layers, cuts), mode, recompute);

  SoftmaxCrossEntropy loss;
  Sgd sgd(0.01);
  PipelineTrainerOptions options;
  options.schedule = schedule;
  options.weight_mode = mode;
  options.recompute_activations = recompute;
  options.interleave_chunks = chunks;
  options.gpipe_microbatches = 4;
  options.accumulation_steps = mode == WeightMode::kDoubleBuffered ? num_stages : 1;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, /*batch=*/8, /*seed=*/5, options);

  trainer.TrainEpoch();  // warm-up to steady state
  double best_epoch_seconds = 1e30;
  int64_t epoch_minibatches = 0;
  for (int e = 0; e < timed_epochs; ++e) {
    const double t0 = NowSeconds();
    const EpochStats stats = trainer.TrainEpoch();
    best_epoch_seconds = std::min(best_epoch_seconds, NowSeconds() - t0);
    epoch_minibatches = stats.minibatches;
  }
  cell.minibatches_per_s = static_cast<double>(epoch_minibatches) / best_epoch_seconds;

  // Per-physical-worker measured peak, in the memory model's own terms: 2 weight copies
  // (live + gradients) + the logical weight-stash peak (shadow/stash versions) + the
  // activation-stash peak. Interleaved chunk-stages fold onto worker = stage mod depth,
  // exactly as the simulator and predictor fold them.
  std::vector<int64_t> worker_bytes(static_cast<size_t>(depth), 0);
  for (int s = 0; s < plan.num_stages(); ++s) {
    const int w = schedule == ScheduleKind::kInterleaved ? s % depth : s;
    const int64_t weight_bytes =
        profile.ParamBytes(plan.stage(s).begin_layer, plan.stage(s).end_layer);
    worker_bytes[static_cast<size_t>(w)] += 2 * weight_bytes +
                                            trainer.StagePeakStashBytes(s) +
                                            trainer.StagePeakActivationBytes(s);
  }
  cell.measured_peak_bytes = *std::max_element(worker_bytes.begin(), worker_bytes.end());

  SimOptions sim;
  sim.schedule = schedule;
  sim.num_minibatches = 96;
  sim.gpipe_microbatches = 4;
  sim.interleave_chunks = chunks;
  sim.recompute = recompute;
  sim.weight_mode = mode;
  sim.accumulation_steps = options.accumulation_steps;
  const SimResult simmed = SimulatePipeline(profile, plan, topo, sim);
  for (const int64_t bytes : simmed.worker_peak_memory) {
    cell.sim_peak_bytes = std::max(cell.sim_peak_bytes, bytes);
  }

  ScheduleSpec spec;
  spec.kind = schedule;
  spec.flush_microbatches = 4;
  spec.interleave_chunks = chunks;
  spec.recompute = recompute;
  cell.predicted_peak_bytes = PredictPlan(profile, plan, topo, spec).max_worker_memory_bytes;
  return cell;
}

int Main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Batches per epoch must be divisible by every accumulation boundary swept (2, 4, 6, 8)
  // so no gradient tail is dropped: 24 batches in smoke mode, 96 otherwise.
  const Dataset data = MakeGaussianMixture(3, 16, smoke ? 64 : 256, 0.4, 7);
  const int timed_epochs = smoke ? 1 : 3;

  const std::vector<int> depths = {2, 4, 6, 8};
  std::vector<Row> rows;
  for (const int depth : depths) {
    Row row;
    row.depth = depth;
    row.full_clone =
        RunMode(data, depth, WeightMode::kStashing, /*zero_copy=*/false, timed_epochs);
    row.cow = RunMode(data, depth, WeightMode::kStashing, /*zero_copy=*/true, timed_epochs);
    row.two_bw = RunMode(data, depth, WeightMode::kDoubleBuffered, /*zero_copy=*/true,
                         timed_epochs);
    rows.push_back(row);
  }

  // --- schedule frontier: profile once, then price + run every cell at every depth.
  const ModelProfile profile = [&] {
    Rng rng(3);
    const auto model = MakeModel(&rng);
    Tensor sample;
    Tensor targets;
    MinibatchLoader loader(&data, /*batch=*/8, /*seed=*/5);
    loader.BatchAt(0, &sample, &targets);
    return ProfileModel(*model, sample, "mlp_2bw_bench");
  }();
  const HardwareTopology topo = HardwareTopology::Flat(16, 1e9);
  const int model_layers = profile.num_layers();

  std::vector<FrontierCell> frontier;
  for (const int depth : depths) {
    frontier.push_back(RunFrontierCell(data, profile, topo, depth, "1f1b_stash",
                                       ScheduleKind::kOneFOneB, WeightMode::kStashing,
                                       /*recompute=*/false, 1, timed_epochs));
    frontier.push_back(RunFrontierCell(data, profile, topo, depth, "1f1b_2bw",
                                       ScheduleKind::kOneFOneB, WeightMode::kDoubleBuffered,
                                       /*recompute=*/false, 1, timed_epochs));
    frontier.push_back(RunFrontierCell(data, profile, topo, depth, "1f1b_2bw_recompute",
                                       ScheduleKind::kOneFOneB, WeightMode::kDoubleBuffered,
                                       /*recompute=*/true, 1, timed_epochs));
    frontier.push_back(RunFrontierCell(data, profile, topo, depth, "flush_m4",
                                       ScheduleKind::kPipeDreamFlush, WeightMode::kNaive,
                                       /*recompute=*/false, 1, timed_epochs));
    if (2 * depth <= model_layers) {  // interleaving needs >= 1 layer per chunk-stage
      frontier.push_back(RunFrontierCell(data, profile, topo, depth, "interleaved_k2",
                                         ScheduleKind::kInterleaved, WeightMode::kStashing,
                                         /*recompute=*/false, 2, timed_epochs));
    }
  }

  // Budget demo at the deepest pipeline: the largest budget band where a memory-efficient
  // schedule (flush or recompute) fits and plain 1F1B stashing/2BW both bust. A budget in
  // the middle of that band is a (depth, memory) point the schedule dimension unlocked.
  const int demo_depth = depths.back();
  int64_t efficient_lo = INT64_MAX;  // best of {flush, recompute} (must fit)
  int64_t plain_hi = INT64_MAX;      // best of {1f1b_stash, 1f1b_2bw} (must NOT fit)
  for (const FrontierCell& cell : frontier) {
    if (cell.depth != demo_depth) continue;
    if (cell.name == "flush_m4" || cell.name == "1f1b_2bw_recompute") {
      efficient_lo = std::min(efficient_lo, cell.measured_peak_bytes);
    }
    if (cell.name == "1f1b_stash" || cell.name == "1f1b_2bw") {
      plain_hi = std::min(plain_hi, cell.measured_peak_bytes);
    }
  }
  const int64_t budget_bytes =
      efficient_lo < plain_hi ? (efficient_lo + plain_hi) / 2 : 0;

  if (json) {
    std::printf(
        "{\n  \"note\": \"summed per-stage peak weight-stash bytes (materialized under "
        "copy-on-write unless noted) and minibatches/s for one MLP partitioned into "
        "straight pipelines of increasing depth; full_clone = kStashing with zero-copy "
        "disabled (logical bytes), cow_stash = kStashing pooled, 2bw = kDoubleBuffered "
        "with accumulation_steps = depth\",\n");
    std::printf("  \"depths\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf(
          "    {\"depth\": %d, \"full_clone_bytes\": %lld, \"cow_stash_bytes\": %lld, "
          "\"2bw_bytes\": %lld, \"stashing_logical_bytes\": %lld, "
          "\"full_clone_minibatches_per_s\": %.2f, \"cow_stash_minibatches_per_s\": %.2f, "
          "\"2bw_minibatches_per_s\": %.2f}%s\n",
          r.depth, static_cast<long long>(r.full_clone.materialized_stash_bytes),
          static_cast<long long>(r.cow.materialized_stash_bytes),
          static_cast<long long>(r.two_bw.materialized_stash_bytes),
          static_cast<long long>(r.cow.logical_stash_bytes),
          r.full_clone.minibatches_per_s, r.cow.minibatches_per_s,
          r.two_bw.minibatches_per_s, i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf(
        "  \"schedule_frontier_note\": \"per-(schedule, weight-mode, recompute) cell at "
        "each pipeline depth: real-runtime throughput and max per-worker peak memory "
        "(measured = 2 weight copies + logical stash peak + activation peak), against the "
        "event simulator's and the planner predictor's peaks for the same plan; flush runs "
        "PipeDream-Flush with m = 4 rounds, interleaved runs k = 2 virtual chunk-stages "
        "per worker\",\n");
    std::printf("  \"schedule_frontier\": [\n");
    for (size_t i = 0; i < frontier.size(); ++i) {
      const FrontierCell& c = frontier[i];
      std::printf(
          "    {\"depth\": %d, \"cell\": \"%s\", \"schedule\": \"%s\", \"weight_mode\": "
          "\"%s\", \"recompute\": %s, \"chunks\": %d, \"minibatches_per_s\": %.2f, "
          "\"measured_peak_bytes\": %lld, \"sim_peak_bytes\": %lld, "
          "\"predicted_peak_bytes\": %lld}%s\n",
          c.depth, c.name.c_str(), ScheduleKindName(c.schedule), WeightModeName(c.mode),
          c.recompute ? "true" : "false", c.chunks, c.minibatches_per_s,
          static_cast<long long>(c.measured_peak_bytes),
          static_cast<long long>(c.sim_peak_bytes),
          static_cast<long long>(c.predicted_peak_bytes),
          i + 1 < frontier.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf(
        "  \"budget_demo\": {\"depth\": %d, \"budget_bytes\": %lld, \"fits\": [", demo_depth,
        static_cast<long long>(budget_bytes));
    bool first_item = true;
    for (const FrontierCell& c : frontier) {
      if (c.depth != demo_depth || budget_bytes <= 0 ||
          c.measured_peak_bytes > budget_bytes) {
        continue;
      }
      std::printf("%s\"%s\"", first_item ? "" : ", ", c.name.c_str());
      first_item = false;
    }
    std::printf("], \"does_not_fit\": [");
    first_item = true;
    for (const FrontierCell& c : frontier) {
      if (c.depth != demo_depth ||
          (budget_bytes > 0 && c.measured_peak_bytes <= budget_bytes)) {
        continue;
      }
      std::printf("%s\"%s\"", first_item ? "" : ", ", c.name.c_str());
      first_item = false;
    }
    std::printf("]}\n");
    std::printf("}\n");
    return 0;
  }

  Table table({"depth", "full-clone stash", "COW stash", "2BW", "full-clone mb/s",
               "COW mb/s", "2BW mb/s"});
  for (const Row& r : rows) {
    table.AddRow({StrFormat("%d", r.depth),
                  HumanBytes(static_cast<double>(r.full_clone.materialized_stash_bytes)),
                  HumanBytes(static_cast<double>(r.cow.materialized_stash_bytes)),
                  HumanBytes(static_cast<double>(r.two_bw.materialized_stash_bytes)),
                  StrFormat("%.1f", r.full_clone.minibatches_per_s),
                  StrFormat("%.1f", r.cow.minibatches_per_s),
                  StrFormat("%.1f", r.two_bw.minibatches_per_s)});
  }
  table.Print("Summed per-stage peak weight-stash bytes vs pipeline depth");

  const double first = static_cast<double>(rows.front().two_bw.materialized_stash_bytes);
  const double last = static_cast<double>(rows.back().two_bw.materialized_stash_bytes);
  const double drift = first > 0.0 ? std::abs(last - first) / first : 0.0;
  const double stash_growth =
      rows.front().full_clone.materialized_stash_bytes > 0
          ? static_cast<double>(rows.back().full_clone.materialized_stash_bytes) /
                static_cast<double>(rows.front().full_clone.materialized_stash_bytes)
          : 0.0;
  std::printf("\n2BW footprint drift across depth %d -> %d: %.1f%% (flat = one shadow copy "
              "of the model).\nStashing grew %.1fx over the same sweep (depth grew %.1fx).\n",
              depths.front(), depths.back(), 100.0 * drift, stash_growth,
              static_cast<double>(depths.back()) / static_cast<double>(depths.front()));

  Table ftable({"depth", "cell", "mb/s", "measured peak", "sim peak", "predicted peak"});
  for (const FrontierCell& c : frontier) {
    ftable.AddRow({StrFormat("%d", c.depth), c.name, StrFormat("%.1f", c.minibatches_per_s),
                   HumanBytes(static_cast<double>(c.measured_peak_bytes)),
                   HumanBytes(static_cast<double>(c.sim_peak_bytes)),
                   HumanBytes(static_cast<double>(c.predicted_peak_bytes))});
  }
  ftable.Print("Schedule frontier: max per-worker peak memory per (schedule, mode, recompute)");
  if (budget_bytes > 0) {
    std::printf("\nBudget demo at depth %d: under a %s device budget, flush/recompute fit "
                "while plain 1F1B stashing and 2BW both bust — the schedule dimension "
                "admits a (depth, memory) point the weight modes alone cannot.\n",
                demo_depth, HumanBytes(static_cast<double>(budget_bytes)).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
