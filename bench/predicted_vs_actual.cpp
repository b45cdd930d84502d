// Predicted vs actual: the same (model, plan) run through the virtual-time simulator and the
// threaded runtime, compared per stage — a machine-checkable analogue of Figure 15, but
// against the *real* substrate instead of the simulator standing in for it.
//
// Usage: bench_predicted_vs_actual [--json] [--smoke] [--traces]
//   --json    emit the machine-readable report (the format stored in BENCH_obs.json)
//   --smoke   smaller dataset / fewer epochs; fast enough for ctest (`ctest -L obs`)
//   --traces  also write sim_trace.json / real_trace.json (identical Chrome schema — load
//             both in Perfetto to overlay the swimlanes)
//
// Method: profile the model's per-layer times (ProfileModel), feed the profile to the
// discrete-event simulator with record_trace, and train the real 2-stage 1F1B pipeline with
// the obs trace ring armed. Both substrates emit the same span schema ("fwd"/"bwd" with
// {stage, minibatch} args), so per-stage mean op times are computed from the two traces by
// one piece of code. Two corrections close the loop:
//
//   1. Instrumentation discount: armed tracing costs real nanoseconds per span that the
//      virtual clock never pays. The armed-minus-disarmed per-span delta is measured in
//      this process and subtracted from every real op mean, so delta_pct reflects model
//      error rather than the trace ring.
//   2. Recalibration (the paper's profiler loop, §3.1): the timed epoch's per-stage op
//      histograms become a MeasuredProfile, RecalibrateProfile folds them into the
//      per-layer estimates, and the simulator re-runs on observed numbers. The headline
//      stage_time_correlation / real_over_sim_throughput use the recalibrated model; the
//      *_raw fields keep the estimate-only values for comparison. MeasuredWorkerSpecs
//      closes the same loop for the planner: PredictPlan runs on measured speeds.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/data/dataset.h"
#include "src/data/loader.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/obs/bubble.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/optim/sgd.h"
#include "src/planner/calibration.h"
#include "src/planner/predictor.h"
#include "src/profile/profiler.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/simexec/pipeline_sim.h"

using namespace pipedream;

namespace {

struct OpStat {
  RunningStat fwd;
  RunningStat bwd;
};

// Per-stage mean op times from the simulator's virtual-time trace.
std::map<int, OpStat> SimStageStats(const ExecutionTrace& trace) {
  std::map<int, OpStat> stats;
  for (const TraceEvent& e : trace.events()) {
    RunningStat& s =
        e.type == WorkType::kForward ? stats[e.stage].fwd : stats[e.stage].bwd;
    s.Add((e.end - e.start).ToSeconds());
  }
  return stats;
}

// Per-stage mean op times from the runtime's wall-clock trace (same schema, same math).
std::map<int, OpStat> RealStageStats(const std::vector<obs::CollectedEvent>& events) {
  std::map<int, OpStat> stats;
  for (const obs::CollectedEvent& e : events) {
    if (e.phase != obs::EventPhase::kSpan || e.stage < 0) {
      continue;
    }
    if (std::strcmp(e.name, "fwd") == 0) {
      stats[e.stage].fwd.Add(static_cast<double>(e.dur_ns) * 1e-9);
    } else if (std::strcmp(e.name, "bwd") == 0) {
      stats[e.stage].bwd.Add(static_cast<double>(e.dur_ns) * 1e-9);
    }
  }
  return stats;
}

// Mean cost of one PD_TRACE_SPAN site in the current tracing state, in nanoseconds.
double MeasureSpanCostNs(int64_t iters) {
  const int64_t begin = obs::TraceClockNs();
  for (int64_t i = 0; i < iters; ++i) {
    PD_TRACE_SPAN("overhead_probe", 0, i);
  }
  const int64_t end = obs::TraceClockNs();
  return static_cast<double>(end - begin) / static_cast<double>(iters);
}

// Sim-side bubble attribution: classify each stage's idle gaps in the virtual-time trace
// by what ends them — the SAME rule the runtime's stall attribution applies (waiting on a
// forward from upstream is starvation; anything else, including waiting to admit or for a
// gradient, is backpressure). Returns per-stage per-cause idle nanoseconds.
std::map<int, std::array<double, obs::kNumStallCauses>> SimBubbleNs(
    const ExecutionTrace& trace) {
  std::map<int, std::vector<const TraceEvent*>> by_stage;
  for (const TraceEvent& e : trace.events()) {
    by_stage[e.stage].push_back(&e);
  }
  std::map<int, std::array<double, obs::kNumStallCauses>> out;
  for (auto& [stage, ops] : by_stage) {
    std::sort(ops.begin(), ops.end(),
              [](const TraceEvent* a, const TraceEvent* b) { return a->start < b->start; });
    std::array<double, obs::kNumStallCauses>& ns = out[stage];
    ns.fill(0.0);
    SimTime cursor;  // zero: the pipeline-fill wait is a real (startup) bubble
    for (const TraceEvent* e : ops) {
      if (e->start > cursor) {
        const obs::StallCause cause = e->type == WorkType::kForward && stage > 0
                                          ? obs::StallCause::kStarvedUpstream
                                          : obs::StallCause::kBackpressuredDownstream;
        ns[static_cast<size_t>(cause)] +=
            static_cast<double>((e->start - cursor).nanos());
      }
      cursor = std::max(cursor, e->end);
    }
  }
  return out;
}

struct BubbleRow {
  int stage = 0;
  const char* cause = "";
  double real_frac = 0.0;  // runtime BubbleAccountant counters / epoch wall time
  double sim_frac = 0.0;   // virtual-time idle-gap classification / sim makespan

  // 1 = fractions coincide; 0 = one substrate saw a bubble class the other missed
  // entirely. Both-zero counts as perfect agreement.
  double agreement() const {
    const double hi = std::max(real_frac, sim_frac);
    if (hi <= 1e-9) {
      return 1.0;
    }
    return 1.0 - std::min(1.0, std::abs(real_frac - sim_frac) / hi);
  }
};

struct StageRow {
  int stage = 0;
  const char* op = "";
  double sim_ms = 0.0;       // estimate-driven simulator
  double sim_recal_ms = 0.0; // measurement-recalibrated simulator
  double real_ms = 0.0;      // runtime wall clock, instrumentation discounted

  double delta_pct() const {
    return sim_ms > 0 ? 100.0 * (real_ms - sim_ms) / sim_ms : 0.0;
  }
  double recal_delta_pct() const {
    return sim_recal_ms > 0 ? 100.0 * (real_ms - sim_recal_ms) / sim_recal_ms : 0.0;
  }
};

int Main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  bool traces = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--traces") == 0) traces = true;
  }

  const int64_t classes = 4;
  const int64_t dim = 32;
  const int64_t batch = 16;
  const int64_t per_class = smoke ? 160 : 640;
  const int num_stages = 2;

  const Dataset data = MakeGaussianMixture(classes, dim, per_class, 0.35, 17);
  Rng rng(7);
  const auto model = BuildMlpClassifier(dim, {96, 96, 96}, classes, &rng);
  const int layers = static_cast<int>(model->size());

  // One representative minibatch for the profiler (the paper's single-GPU profiling run).
  MinibatchLoader sample_loader(&data, batch, /*seed=*/5);
  Tensor sample_x;
  Tensor sample_y;
  sample_loader.NextBatch(&sample_x, &sample_y);
  const ModelProfile profile = ProfileModel(*model, sample_x, "mlp_pva");

  std::vector<int> cuts;
  for (int s = 1; s < num_stages; ++s) {
    cuts.push_back(std::max(1, layers * s / num_stages));
  }
  const PipelinePlan plan = MakeStraightPlan(layers, cuts);

  // --- real substrate: 1F1B with weight stashing, trace ring armed for the timed epoch.
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.01, 0.8);
  PipelineTrainerOptions options;
  options.weight_mode = WeightMode::kStashing;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, batch, /*seed=*/5, options);

  trainer.TrainEpoch();  // warm-up (untraced): faults in code paths, fills the buffer pool
  // The per-stage op histograms must cover exactly the timed epoch (they feed the
  // recalibrated profile below), so drop the warm-up's observations.
  obs::MetricsRegistry::Get().Reset();
  obs::ClearTrace();
  obs::StartTracing();
  const EpochStats stats = trainer.TrainEpoch();
  obs::StopTracing();
  const std::vector<obs::CollectedEvent> real_events = obs::CollectEvents();
  const double real_mb_per_s =
      stats.wall_seconds > 0 ? static_cast<double>(stats.minibatches) / stats.wall_seconds
                             : 0.0;

  // --- instrumentation discount: armed-minus-disarmed per-span cost, measured here and
  // now so it tracks this host's clock and ring behavior. The probe loops run after the
  // timed epoch (the armed probe scribbles on the ring, which has already been drained).
  MeasureSpanCostNs(100'000);  // warm caches and the branch predictor
  const double disarmed_ns = MeasureSpanCostNs(1'000'000);
  obs::StartTracing();
  MeasureSpanCostNs(10'000);
  const double armed_ns = MeasureSpanCostNs(200'000);
  obs::StopTracing();
  obs::ClearTrace();
  const double overhead_ns_per_span = std::max(0.0, armed_ns - disarmed_ns);
  const double overhead_s = overhead_ns_per_span * 1e-9;

  // --- measured profile for the feedback loop, with the same discount applied (each
  // histogram observation wraps one armed trace span).
  MeasuredProfile measured = CollectMeasuredProfileForPlan(plan);
  for (MeasuredStageOps& ops : measured.stages) {
    ops.fwd_seconds = std::max(0.0, ops.fwd_seconds - overhead_s);
    ops.bwd_seconds = std::max(0.0, ops.bwd_seconds - overhead_s);
  }
  const ModelProfile recal_profile = RecalibrateProfile(profile, measured);
  const std::vector<WorkerSpec> measured_specs = MeasuredWorkerSpecs(profile, plan, measured);

  // --- simulated substrate: same plan, one virtual epoch, run twice — once on the
  // estimated per-layer profile, once on the recalibrated one. A flat high-bandwidth
  // topology approximates in-process mailbox hops.
  const auto topo = HardwareTopology::Flat(num_stages, /*bandwidth_bytes_per_sec=*/8e9);
  SimOptions sim_options;
  sim_options.num_minibatches = stats.minibatches > 0 ? stats.minibatches : 64;
  sim_options.record_trace = true;
  const SimResult sim = SimulatePipeline(profile, plan, topo, sim_options);
  const SimResult sim_recal = SimulatePipeline(recal_profile, plan, topo, sim_options);
  const double sim_mb_per_s = sim.throughput_samples_per_sec / static_cast<double>(batch);
  const double recal_mb_per_s =
      sim_recal.throughput_samples_per_sec / static_cast<double>(batch);

  // --- planner feedback: the analytic predictor on measured worker speeds (the
  // obs -> profile -> planner path PartitionHeterogeneous consumes when re-planning).
  const PlanPrediction measured_prediction = PredictPlan(profile, plan, topo, {}, measured_specs);
  const double predicted_mb_per_s =
      measured_prediction.throughput_samples_per_sec / static_cast<double>(batch);

  if (traces) {
    sim.trace.WriteChromeJson("sim_trace.json");
    obs::WriteTrace("real_trace.json");
  }

  const std::map<int, OpStat> sim_stats = SimStageStats(sim.trace);
  const std::map<int, OpStat> recal_stats = SimStageStats(sim_recal.trace);
  const std::map<int, OpStat> real_stats = RealStageStats(real_events);

  std::vector<StageRow> rows;
  std::vector<double> sim_means;
  std::vector<double> recal_means;
  std::vector<double> real_means;
  for (int s = 0; s < num_stages; ++s) {
    const auto sim_it = sim_stats.find(s);
    const auto recal_it = recal_stats.find(s);
    const auto real_it = real_stats.find(s);
    if (sim_it == sim_stats.end() || recal_it == recal_stats.end() ||
        real_it == real_stats.end()) {
      PD_LOG(ERROR) << "missing stage " << s << " in a trace (sim " << sim_stats.size()
                    << " stages, real " << real_stats.size() << " stages)";
      return 1;
    }
    for (const char* op : {"fwd", "bwd"}) {
      StageRow row;
      row.stage = s;
      row.op = op;
      const bool fwd = std::strcmp(op, "fwd") == 0;
      row.sim_ms = (fwd ? sim_it->second.fwd : sim_it->second.bwd).mean() * 1e3;
      row.sim_recal_ms = (fwd ? recal_it->second.fwd : recal_it->second.bwd).mean() * 1e3;
      row.real_ms = std::max(
          0.0, (fwd ? real_it->second.fwd : real_it->second.bwd).mean() - overhead_s) * 1e3;
      sim_means.push_back(row.sim_ms);
      recal_means.push_back(row.sim_recal_ms);
      real_means.push_back(row.real_ms);
      rows.push_back(row);
    }
  }
  // --- bubble attribution, sim vs real: the runtime's per-cause stall counters (filled
  // during the timed epoch; the registry reset dropped the warm-up's) against the
  // recalibrated simulator's classified idle gaps, both as fractions of their own window.
  const auto sim_bubbles = SimBubbleNs(sim_recal.trace);
  const double sim_window_ns = static_cast<double>(sim_recal.trace.end_time().nanos());
  std::vector<BubbleRow> bubble_rows;
  for (int s = 0; s < num_stages; ++s) {
    const auto sim_it = sim_bubbles.find(s);
    for (int c = 0; c < obs::kNumStallCauses; ++c) {
      BubbleRow row;
      row.stage = s;
      row.cause = obs::StallCauseName(static_cast<obs::StallCause>(c));
      const int64_t real_ns =
          obs::GetCounter(StrFormat("runtime/stage%d/bubble/%s_ns", s, row.cause))->value();
      row.real_frac = stats.wall_seconds > 0
                          ? static_cast<double>(real_ns) * 1e-9 / stats.wall_seconds
                          : 0.0;
      row.sim_frac = sim_it != sim_bubbles.end() && sim_window_ns > 0
                         ? sim_it->second[static_cast<size_t>(c)] / sim_window_ns
                         : 0.0;
      bubble_rows.push_back(row);
    }
  }

  const double correlation_raw = PearsonCorrelation(sim_means, real_means);
  const double correlation = PearsonCorrelation(recal_means, real_means);
  const double throughput_ratio_raw = sim_mb_per_s > 0 ? real_mb_per_s / sim_mb_per_s : 0.0;
  const double throughput_ratio = recal_mb_per_s > 0 ? real_mb_per_s / recal_mb_per_s : 0.0;

  if (json) {
    std::printf("{\n  \"note\": \"per-stage mean op time, simulator vs threaded runtime "
                "(trace-overhead discounted); headline correlation/throughput use the "
                "measurement-recalibrated profile, *_raw the estimate-only one\",\n");
    std::printf("  \"model\": \"mlp_%lldx96x96x96x%lld\", \"stages\": %d, \"batch\": %lld, "
                "\"minibatches\": %lld,\n",
                static_cast<long long>(dim), static_cast<long long>(classes), num_stages,
                static_cast<long long>(batch), static_cast<long long>(stats.minibatches));
    std::printf("  \"trace_overhead_ns_per_span\": %.1f,\n", overhead_ns_per_span);
    std::printf("  \"stage_ops\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const StageRow& r = rows[i];
      std::printf("    {\"stage\": %d, \"op\": \"%s\", \"sim_ms\": %.4f, "
                  "\"sim_recal_ms\": %.4f, \"real_ms\": %.4f, \"delta_pct\": %.1f, "
                  "\"recal_delta_pct\": %.1f}%s\n",
                  r.stage, r.op, r.sim_ms, r.sim_recal_ms, r.real_ms, r.delta_pct(),
                  r.recal_delta_pct(), i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"measured_worker_speeds\": [");
    for (size_t w = 0; w < measured_specs.size(); ++w) {
      std::printf("%s%.3f", w > 0 ? ", " : "", measured_specs[w].speed);
    }
    std::printf("],\n");
    std::printf("  \"predicted_minibatches_per_s_measured_specs\": %.2f,\n",
                predicted_mb_per_s);
    std::printf("  \"sim_minibatches_per_s\": %.2f, \"recal_sim_minibatches_per_s\": %.2f, "
                "\"real_minibatches_per_s\": %.2f,\n",
                sim_mb_per_s, recal_mb_per_s, real_mb_per_s);
    std::printf("  \"real_over_sim_throughput_raw\": %.3f, "
                "\"real_over_sim_throughput\": %.3f,\n",
                throughput_ratio_raw, throughput_ratio);
    std::printf("  \"bubble_attribution\": [\n");
    for (size_t i = 0; i < bubble_rows.size(); ++i) {
      const BubbleRow& b = bubble_rows[i];
      std::printf("    {\"stage\": %d, \"cause\": \"%s\", \"real_frac\": %.4f, "
                  "\"sim_frac\": %.4f, \"agreement\": %.3f}%s\n",
                  b.stage, b.cause, b.real_frac, b.sim_frac, b.agreement(),
                  i + 1 < bubble_rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"stage_time_correlation_raw\": %.4f,\n", correlation_raw);
    std::printf("  \"stage_time_correlation\": %.4f\n}\n", correlation);
    return 0;
  }

  Table table({"stage", "op", "sim ms", "recal ms", "real ms", "delta", "recal delta"});
  for (const StageRow& r : rows) {
    table.AddRow({StrFormat("%d", r.stage), r.op, StrFormat("%.4f", r.sim_ms),
                  StrFormat("%.4f", r.sim_recal_ms), StrFormat("%.4f", r.real_ms),
                  StrFormat("%+.1f%%", r.delta_pct()),
                  StrFormat("%+.1f%%", r.recal_delta_pct())});
  }
  table.Print("predicted (sim) vs actual (runtime) per-stage op times");
  std::printf("\ntrace overhead: %.1f ns/span (subtracted from real op means)\n",
              overhead_ns_per_span);
  std::printf("throughput: sim %.2f mb/s (recal %.2f), real %.2f mb/s "
              "(real/sim raw %.3f, recal %.3f)\n",
              sim_mb_per_s, recal_mb_per_s, real_mb_per_s, throughput_ratio_raw,
              throughput_ratio);
  std::printf("measured worker speeds:");
  for (const WorkerSpec& w : measured_specs) {
    std::printf(" %.3f", w.speed);
  }
  std::printf("  (predictor on measured specs: %.2f mb/s)\n", predicted_mb_per_s);
  Table bubbles({"stage", "cause", "real frac", "sim frac", "agreement"});
  for (const BubbleRow& b : bubble_rows) {
    bubbles.AddRow({StrFormat("%d", b.stage), b.cause, StrFormat("%.4f", b.real_frac),
                    StrFormat("%.4f", b.sim_frac), StrFormat("%.3f", b.agreement())});
  }
  bubbles.Print("bubble attribution, runtime stall counters vs simulated idle gaps");
  std::printf("per-(stage,op) time correlation: raw %.4f, recalibrated %.4f\n",
              correlation_raw, correlation);
  std::printf("shape check: recalibrated correlation should approach 1 and the "
              "recalibrated throughput ratio should approach 1 from below.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
