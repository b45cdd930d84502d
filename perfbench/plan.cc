// plan_sim_zoo: the paper-model rows of Table 1 through the planner and the simulator.
// Each row runs AutoPlan, prices the schedule frontier over a balanced straight plan, picks
// a schedule, then simulates the chosen plan and one frontier cell per schedule kind.
// Planning a row is single-threaded and deterministic; one planner thread per CPU sweeps the
// zoo (see RunRounds). The seed only permutes the row order.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/core/pipedream.h"
#include "src/obs/trace.h"
#include "src/planner/schedule_frontier.h"
#include "src/profile/model_zoo.h"
#include "src/simexec/pipeline_sim.h"

namespace perfbench {

using namespace pipedream;

namespace {

constexpr int64_t kSimMinibatches = 64;

struct ZooRow {
  std::string model;
  HardwareTopology topology;
  ModelProfile profile;
};

std::vector<ZooRow> BuildRows(uint64_t seed) {
  struct Spec {
    const char* model;
    HardwareTopology topology;
    DeviceSpec device;
  };
  const Spec specs[] = {
      {"VGG-16", HardwareTopology::ClusterA(4), DeviceSpec::V100()},
      {"VGG-16", HardwareTopology::ClusterB(2), DeviceSpec::V100()},
      {"ResNet-50", HardwareTopology::ClusterA(4), DeviceSpec::V100()},
      {"ResNet-50", HardwareTopology::ClusterB(2), DeviceSpec::V100()},
      {"AlexNet", HardwareTopology::ClusterA(4), DeviceSpec::V100()},
      {"AlexNet", HardwareTopology::ClusterB(2), DeviceSpec::V100()},
      {"GNMT-16", HardwareTopology::ClusterA(1), DeviceSpec::V100()},
      {"GNMT-16", HardwareTopology::ClusterA(4), DeviceSpec::V100()},
      {"GNMT-16", HardwareTopology::ClusterB(2), DeviceSpec::V100()},
      {"GNMT-8", HardwareTopology::ClusterA(1), DeviceSpec::V100()},
      {"GNMT-8", HardwareTopology::ClusterA(3), DeviceSpec::V100()},
      {"GNMT-8", HardwareTopology::ClusterB(2), DeviceSpec::V100()},
      {"AWD-LM", HardwareTopology::ClusterA(1), DeviceSpec::V100()},
      {"S2VT", HardwareTopology::ClusterC(4), DeviceSpec::TitanX()},
  };
  std::vector<ZooRow> rows;
  for (const Spec& s : specs) {
    rows.push_back({s.model, s.topology, MakeProfileByName(s.model, s.device)});
  }
  Rng rng(seed);
  for (size_t i = rows.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(rows[i], rows[static_cast<size_t>(rng.NextU64() % (i + 1))]);
  }
  return rows;
}

struct RowOutcome {
  bool ok = true;
  int64_t simulated_minibatches = 0;
};

bool Positive(double v) { return std::isfinite(v) && v > 0.0; }

RowOutcome PlanRow(const ZooRow& row) {
  RowOutcome out;
  const ModelProfile& profile = row.profile;
  const int layers = profile.num_layers();
  const int workers = row.topology.num_workers();
  AutoPlanResult planned;
  {
    PD_TRACE_SPAN("AutoPlan");
    planned = AutoPlan(profile, row.topology);
  }
  const PipelinePlan& plan = planned.partition.plan;
  plan.Validate(layers);
  {
    PD_TRACE_SPAN("SimulatePipeline");
    double throughput = 0.0;
    if (plan.IsDataParallel(layers)) {
      throughput = SimulateDataParallelBsp(profile, row.topology, workers).throughput_samples_per_sec;
    } else {
      SimOptions options;
      options.num_minibatches = kSimMinibatches;
      throughput = SimulatePipeline(profile, plan, row.topology, options).throughput_samples_per_sec;
      out.simulated_minibatches += kSimMinibatches;
    }
    out.ok = out.ok && Positive(throughput);
  }
  // The interleaved cells split the model into 2 chunk-stages per worker, so the straight
  // plan uses at most half the workers and half the layers.
  const int stages = std::min({4, workers / 2, layers / 2});
  if (stages < 2) {
    return out;
  }
  const PipelinePlan straight = MakeBalancedStraightPlan(profile, stages);
  std::vector<ScheduleCandidate> frontier;
  {
    PD_TRACE_SPAN("EnumerateScheduleFrontier");
    frontier = EnumerateScheduleFrontier(profile, straight, row.topology, /*device_memory_bytes=*/0);
  }
  const ScheduleCandidate* chosen = ChooseSchedule(frontier);
  out.ok = out.ok && chosen != nullptr;
  for (const ScheduleKind kind : {ScheduleKind::kOneFOneB, ScheduleKind::kGPipe,
                                  ScheduleKind::kPipeDreamFlush, ScheduleKind::kInterleaved}) {
    const auto cell = std::find_if(frontier.begin(), frontier.end(),
                                   [&](const ScheduleCandidate& c) { return c.schedule.kind == kind; });
    if (cell == frontier.end()) {
      out.ok = false;
      continue;
    }
    cell->plan.Validate(layers);
    SimOptions options;
    options.schedule = kind;
    options.num_minibatches = kSimMinibatches;
    options.gpipe_microbatches = cell->schedule.flush_microbatches;
    options.interleave_chunks = cell->schedule.interleave_chunks;
    options.weight_mode = cell->weight_mode;
    options.recompute = cell->recompute;
    PD_TRACE_SPAN("SimulatePipeline");
    const SimResult sim = SimulatePipeline(profile, cell->plan, row.topology, options);
    out.simulated_minibatches += kSimMinibatches;
    out.ok = out.ok && Positive(sim.throughput_samples_per_sec);
  }
  return out;
}

struct ZooPhase {
  std::vector<double> round_seconds;
  std::vector<double> row_done;  // seconds from the phase start
  int64_t rows = 0;
  int64_t failed = 0;
  int64_t simulated_minibatches = 0;
  double wall = 0.0;
};

// Rounds until `seconds` have passed. In a round, each of `threads` planner threads (one
// per CPU) sweeps the zoo once, planning every row; the round ends when the last finishes.
//
// The operation whose latency is reported is the round. A row is too small: row costs
// differ by up to 10x and each appears once per sweep, so a median over rows sits on the
// edge between two rows' costs and flips between them from run to run. One thread is too
// few: its rate rests on whichever CPU it lands on, and on the shared 4-vCPU reference VM
// single-threaded runs were 10x less steady than the 4-worker training runs. A sweep on one
// of several free-running threads flips between the fast and the slow CPUs' times.
ZooPhase RunRounds(const std::vector<ZooRow>& rows, double seconds, int threads) {
  std::vector<ZooPhase> parts(static_cast<size_t>(threads));
  std::vector<double> round_seconds;
  const double t0 = NowSeconds();
  double round_start = t0;
  bool stop = false;
  std::barrier round_end(threads, [&]() noexcept {
    const double now = NowSeconds();
    round_seconds.push_back(now - round_start);
    round_start = now;
    stop = now - t0 >= seconds;
  });
  std::vector<std::thread> planners;
  for (ZooPhase& phase : parts) {
    planners.emplace_back([&] {
      do {
        for (const ZooRow& row : rows) {
          const RowOutcome outcome = PlanRow(row);
          phase.row_done.push_back(NowSeconds() - t0);
          ++phase.rows;
          phase.failed += outcome.ok ? 0 : 1;
          phase.simulated_minibatches += outcome.simulated_minibatches;
        }
        round_end.arrive_and_wait();
      } while (!stop);
    });
  }
  for (std::thread& planner : planners) {
    planner.join();
  }
  ZooPhase all;
  all.round_seconds = std::move(round_seconds);
  for (const ZooPhase& phase : parts) {
    all.row_done.insert(all.row_done.end(), phase.row_done.begin(), phase.row_done.end());
    all.rows += phase.rows;
    all.failed += phase.failed;
    all.simulated_minibatches += phase.simulated_minibatches;
  }
  all.wall = NowSeconds() - t0;
  return all;
}

// Median over whole 1 s windows of rows finished per second.
double RowsPerSecond(const ZooPhase& phase) {
  return MedianRate("rows", phase.row_done, phase.wall, 1.0);
}

// The profiles, then one round: the warm-up that ends each set-up.
std::vector<ZooRow> SetUp(uint64_t seed, int threads) {
  std::vector<ZooRow> rows = BuildRows(seed);
  RunRounds(rows, /*seconds=*/0.0, threads);
  return rows;
}

}  // namespace

void RunPlanSim(const RunConfig& config, Result* result) {
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  NoteProvenance("stage_workers", "0");
  NoteProvenance("planner_threads", std::to_string(threads));
  NoteProvenance("generator_threads", "0");
  if (!config.trace) {
    std::vector<double> setup_seconds;
    std::vector<ZooRow> rows;
    while (MoreSetUps(setup_seconds)) {
      const double t0 = NowSeconds();
      rows = SetUp(config.seed, threads);
      setup_seconds.push_back(NowSeconds() - t0);
    }
    const ZooPhase phase = RunRounds(rows, config.seconds, threads);
    SetSetupMetric(setup_seconds, result);
    result->Set("throughput_per_s", RowsPerSecond(phase), "1/s");
    SetLatencyMetrics(phase.round_seconds, {}, 0.0, result);
    Say("planned %lld rows (%.1f rows/s), %.0f simulated minibatches/s\n",
        static_cast<long long>(phase.rows), static_cast<double>(phase.rows) / phase.wall,
        static_cast<double>(phase.simulated_minibatches) / phase.wall);
    result->Set("peak_rss_mb", PeakRssMb(), "MB");
    result->attempted = phase.rows;
    result->failed = phase.failed;
    return;
  }

  const std::vector<ZooRow> rows = SetUp(config.seed, threads);
  const ZooPhase untraced = RunRounds(rows, config.seconds * 0.4, threads);
  obs::ClearTrace();
  obs::StartTracing();
  const ZooPhase traced = RunRounds(rows, config.seconds * 0.4, threads);
  const double untraced_rate = RowsPerSecond(untraced);
  const double traced_rate = RowsPerSecond(traced);
  result->Set("obs.trace_overhead_frac", (untraced_rate - traced_rate) / untraced_rate,
              "fraction");
  ProbeOptions probes;
  probes.scratch_dir = config.scratch_dir;
  RunProbes(probes, result);
  obs::StopTracing();
  int64_t failed = untraced.failed + traced.failed;
  if (!obs::WriteTrace(config.trace_path)) {
    ++failed;
  }
  // The simulator's own trace of the first row's plan, in the same Chrome schema, so it
  // overlays the runtime traces of the training workloads.
  SimOptions sim_options;
  sim_options.num_minibatches = 16;
  sim_options.record_trace = true;
  const AutoPlanResult first = AutoPlan(rows[0].profile, rows[0].topology);
  const SimResult sim = SimulatePipeline(rows[0].profile, first.partition.plan,
                                         rows[0].topology, sim_options);
  const std::string sim_path = config.trace_path.substr(0, config.trace_path.size() - 5) + "-sim.json";
  std::ofstream(sim_path) << sim.trace.ToChromeJson();
  Say("trace: %s (simulated schedule: %s)\n", config.trace_path.c_str(), sim_path.c_str());
  result->attempted = untraced.rows + traced.rows;
  result->failed = failed;
}

}  // namespace perfbench
