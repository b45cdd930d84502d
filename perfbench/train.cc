// Training workloads: train_vgg_3-1 (hybrid 3-1 plan, in-proc transport) and
// train_mlp_socket (straight 4-stage plan over the socket transport, with recovery armed so
// every epoch writes a checkpoint). Plans are literal shapes, never re-planned from a
// wall-clock profile, so the cuts cannot move between runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/data/dataset.h"
#include "src/data/loader.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/obs/bubble.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/optim/sgd.h"
#include "src/planner/plan.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/tensor/pool.h"

namespace perfbench {

using namespace pipedream;

namespace {

struct TrainSpec {
  bool vgg = true;
  int64_t batch = 32;
  double learning_rate = 0.001;
  double momentum = 0.9;
  std::vector<std::pair<int, int>> shape;  // (layers, replicas) per stage
  TransportKind transport = TransportKind::kInProc;
  bool recovery = false;
};

TrainSpec SpecFor(const std::string& workload) {
  TrainSpec spec;
  if (workload == "train_vgg_3-1") {
    // The conv block replicated on 3 workers, the dense block on 1: the shape the
    // optimizer picks for VGG-16 ("15-1"), scaled to 4 workers.
    spec.shape = {{6, 3}, {4, 1}};
    return spec;
  }
  spec.vgg = false;
  spec.batch = 256;
  spec.learning_rate = 0.02;
  spec.shape = {{4, 1}, {4, 1}, {4, 1}, {3, 1}};
  spec.transport = TransportKind::kUnixSocket;
  spec.recovery = true;
  return spec;
}

Dataset MakeData(const TrainSpec& spec, uint64_t seed) {
  if (spec.vgg) {
    // Pixel noise 3.0 with learning rate 0.001 keeps the loss falling but well above zero
    // over tens of epochs; at 0.01 most seeds collapse to chance (ln 10) after epoch one.
    return MakeSyntheticImages(10, 3, 32, /*per_class=*/96, /*noise=*/3.0, seed);
  }
  return MakeGaussianMixture(16, 64, /*per_class=*/1600, /*spread=*/2.5, seed);
}

std::unique_ptr<Sequential> MakeModel(const TrainSpec& spec, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  if (spec.vgg) {
    return BuildMiniVgg(3, 32, 10, &rng);
  }
  return BuildMlpClassifier(64, std::vector<int64_t>(7, 64), 16, &rng);
}

// One complete set-up: data, model, trainer, transport, and the warm-up epoch. Members are
// destroyed in reverse order, so the trainer goes before what it points at.
struct TrainRig {
  Dataset data;
  std::unique_ptr<Sequential> model;
  SoftmaxCrossEntropy loss;
  std::unique_ptr<Sgd> sgd;
  std::unique_ptr<CheckpointManager> checkpoints;
  std::unique_ptr<PipelineTrainer> trainer;
  double first_loss = 0.0;
  int64_t warmup_minibatches = 0;
  int warmup_failures = 0;
};

std::unique_ptr<TrainRig> BuildRig(const TrainSpec& spec, const PipelinePlan& plan,
                                   uint64_t seed, const std::string& checkpoint_dir) {
  auto rig = std::make_unique<TrainRig>();
  rig->data = MakeData(spec, seed);
  rig->model = MakeModel(spec, seed);
  rig->sgd = std::make_unique<Sgd>(spec.learning_rate, spec.momentum);
  PipelineTrainerOptions options;
  options.weight_mode = WeightMode::kStashing;
  options.transport = spec.transport;
  rig->trainer = std::make_unique<PipelineTrainer>(*rig->model, plan, &rig->loss, *rig->sgd,
                                                   &rig->data, spec.batch, seed, options);
  if (spec.recovery) {
    std::filesystem::remove_all(checkpoint_dir);
    std::filesystem::create_directories(checkpoint_dir);
    rig->checkpoints = std::make_unique<CheckpointManager>(checkpoint_dir);
    rig->trainer->EnableRecovery(rig->checkpoints.get());
  }
  const EpochStats warm = rig->trainer->TrainEpoch();
  rig->first_loss = warm.mean_loss;
  rig->warmup_minibatches = warm.minibatches;
  rig->warmup_failures = warm.failures_detected;
  return rig;
}

struct Phase {
  std::vector<double> epoch_seconds;
  std::vector<double> losses;
  std::vector<int64_t> epoch_minibatches;
  int64_t minibatches = 0;
  int64_t failed_minibatches = 0;
  double wall = 0.0;
  // Median over epochs of the epoch's samples/s.
  double SamplesPerSecond(int64_t batch) const {
    std::vector<double> rates;
    for (size_t e = 0; e < epoch_seconds.size(); ++e) {
      rates.push_back(static_cast<double>(epoch_minibatches[e] * batch) / epoch_seconds[e]);
    }
    return Median(rates);
  }
};

Phase RunEpochs(PipelineTrainer* trainer, double seconds) {
  Phase phase;
  const double t0 = NowSeconds();
  do {
    const double e0 = NowSeconds();
    EpochStats stats;
    {
      PD_TRACE_SPAN("TrainEpoch");
      stats = trainer->TrainEpoch();
    }
    phase.epoch_seconds.push_back(NowSeconds() - e0);
    phase.losses.push_back(stats.mean_loss);
    phase.epoch_minibatches.push_back(stats.minibatches);
    phase.minibatches += stats.minibatches;
    if (stats.failures_detected > 0) {
      phase.failed_minibatches += stats.minibatches;
    }
  } while (NowSeconds() - t0 < seconds);
  phase.wall = NowSeconds() - t0;
  return phase;
}

// Loss must be finite and below the first (warm-up) epoch's. Counts the phase's minibatches
// as failed otherwise.
int64_t CheckLossFell(const TrainRig& rig, const Phase& phase) {
  const double last = phase.losses.back();
  const bool ok = std::isfinite(last) && last < rig.first_loss;
  Say("loss: first epoch %.6f, last epoch %.6f after %zu measured epochs%s\n", rig.first_loss,
      last, phase.losses.size(), ok ? "" : "  CHECK FAILED: loss did not fall");
  return ok ? 0 : phase.minibatches;
}

void NoteThreads(const TrainSpec& spec, const PipelinePlan& plan, int num_layers) {
  const int workers = plan.total_workers();
  NoteProvenance("plan", plan.ConfigString(num_layers));
  NoteProvenance("stage_workers", std::to_string(workers));
  NoteProvenance("kernel_budget_per_worker", std::to_string(KernelBudgetForWorkers(workers)));
  NoteProvenance("transport", TransportKindName(spec.transport));
  // The socket transport runs one receiver thread per stage endpoint.
  NoteProvenance("receiver_threads",
                 std::to_string(spec.transport == TransportKind::kUnixSocket ? workers : 0));
  NoteProvenance("generator_threads", "0");
}

// Isolated per-minibatch compute of one stage slice at kernel budget 1.
struct StageCompute {
  double fwd = 0.0;
  double bwd = 0.0;
  double step = 0.0;
  double Total() const { return fwd + bwd + step; }
};

std::vector<StageCompute> MeasureStageCompute(const TrainSpec& spec, const TrainRig& rig,
                                              const PipelinePlan& plan) {
  MinibatchLoader loader(&rig.data, spec.batch, 1);
  Tensor inputs;
  Tensor targets;
  loader.BatchAt(0, &inputs, &targets);
  ScopedKernelBudget budget(KernelBudgetForWorkers(plan.total_workers()));
  std::vector<StageCompute> out;
  Tensor boundary = inputs;
  Rng rng(5);
  for (int s = 0; s < plan.num_stages(); ++s) {
    PD_TRACE_SPAN("probe/stage_compute", s);
    const StageAssignment& st = plan.stage(s);
    const auto slice = rig.model->CloneSlice(static_cast<size_t>(st.begin_layer),
                                             static_cast<size_t>(st.end_layer));
    const bool last = s + 1 == plan.num_stages();
    StageCompute c;
    Tensor output;
    Tensor grad;
    c.fwd = TimePerCall([&] {
      ModelContext ctx;
      output = slice->Forward(boundary, &ctx, true);
      if (last) {
        rig.loss.Compute(output, targets, &grad);
      }
    });
    ModelContext saved;
    output = slice->Forward(boundary, &saved, true);
    if (last) {
      rig.loss.Compute(output, targets, &grad);
    } else {
      grad = Tensor(output.shape());
      float* g = grad.data();
      for (int64_t i = 0; i < grad.numel(); ++i) {
        g[i] = static_cast<float>(rng.Uniform(-1e-3, 1e-3));
      }
    }
    c.bwd = TimePerCall([&] {
      ModelContext ctx = saved;
      slice->Backward(grad, &ctx);
    });
    Sgd sgd(spec.learning_rate, spec.momentum);
    const std::vector<Parameter*> params = slice->Params();
    c.step = TimePerCall([&] { sgd.Step(params); });
    out.push_back(c);
    boundary = output;
  }
  return out;
}

bool ParseWorkerTrack(const std::string& track, int* stage, int* replica) {
  return std::sscanf(track.c_str(), "s%d/r%d", stage, replica) == 2;
}

struct WorkerTally {
  int stage = 0;
  int64_t fwd = 0;
  int64_t bwd = 0;
  int64_t step = 0;
  double op_seconds = 0.0;
  double starved = 0.0;
  double backpressure = 0.0;
  double weight_sync = 0.0;
};

// Per-stage-worker wall-time budgets over the traced window, each stage's mean over its
// replicas, and the epoch edges (TrainEpoch span time not covered by any worker event).
void DeriveBudgets(const std::vector<obs::CollectedEvent>& events, int64_t t0_ns,
                   int64_t t1_ns, const std::vector<StageCompute>& compute, Result* result) {
  const char* starved = obs::StallCauseSpanName(obs::StallCause::kStarvedUpstream);
  const char* backpressure = obs::StallCauseSpanName(obs::StallCause::kBackpressuredDownstream);
  const char* weight_sync = obs::StallCauseSpanName(obs::StallCause::kWeightSync);
  std::map<std::string, WorkerTally> workers;
  std::vector<std::pair<int64_t, int64_t>> worker_spans;  // [start, end) of worker events
  std::vector<std::pair<int64_t, int64_t>> epochs;
  for (const obs::CollectedEvent& e : events) {
    if (e.phase != obs::EventPhase::kSpan || e.start_ns < t0_ns || e.start_ns > t1_ns) {
      continue;
    }
    if (std::strcmp(e.name, "TrainEpoch") == 0) {
      epochs.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
      continue;
    }
    int stage = 0;
    int replica = 0;
    if (!ParseWorkerTrack(e.track, &stage, &replica)) {
      continue;
    }
    WorkerTally& w = workers[e.track];
    w.stage = stage;
    const double dur = static_cast<double>(e.dur_ns) * 1e-9;
    worker_spans.emplace_back(e.start_ns, e.start_ns + e.dur_ns);
    if (std::strcmp(e.name, "fwd") == 0) {
      ++w.fwd;
      w.op_seconds += dur;
    } else if (std::strcmp(e.name, "bwd") == 0) {
      ++w.bwd;
      w.op_seconds += dur;
    } else if (std::strcmp(e.name, "step") == 0) {
      ++w.step;  // nested in bwd: counted, not timed twice
    } else if (std::strcmp(e.name, weight_sync) == 0) {
      w.weight_sync += dur;  // nested in bwd
    } else if (std::strcmp(e.name, starved) == 0) {
      w.starved += dur;
    } else if (std::strcmp(e.name, backpressure) == 0) {
      w.backpressure += dur;
    }
  }
  const double wall = static_cast<double>(t1_ns - t0_ns) * 1e-9;
  std::vector<StageBudget> stages(compute.size());
  std::vector<int> replicas(compute.size(), 0);
  for (const auto& [track, w] : workers) {
    const StageCompute& c = compute[static_cast<size_t>(w.stage)];
    StageBudgetInput in;
    in.wall = wall;
    in.op_span = w.op_seconds - w.weight_sync;
    in.compute = static_cast<double>(w.fwd) * c.fwd + static_cast<double>(w.bwd) * c.bwd +
                 static_cast<double>(w.step) * c.step;
    in.starved = w.starved;
    in.backpressure = w.backpressure;
    in.weight_sync = w.weight_sync;
    const StageBudget b = ComputeStageBudget(in);
    Say("budget %-6s compute %.4f op_overhead %.4f starved %.4f backpressure %.4f "
        "weight_sync %.4f unaccounted %.4f (sum %.6f)\n",
        track.c_str(), b.compute_frac, b.op_overhead_frac, b.starved_frac,
        b.backpressure_frac, b.weight_sync_frac, b.unaccounted_frac, b.Sum());
    StageBudget& sum = stages[static_cast<size_t>(w.stage)];
    sum.compute_frac += b.compute_frac;
    sum.op_overhead_frac += b.op_overhead_frac;
    sum.starved_frac += b.starved_frac;
    sum.backpressure_frac += b.backpressure_frac;
    sum.weight_sync_frac += b.weight_sync_frac;
    sum.unaccounted_frac += b.unaccounted_frac;
    ++replicas[static_cast<size_t>(w.stage)];
  }
  for (size_t s = 0; s < stages.size(); ++s) {
    const int stage = static_cast<int>(s);
    const double n = std::max(1, replicas[s]);
    result->Set(StageMetric("runtime", stage, "compute_frac"), stages[s].compute_frac / n,
                "fraction");
    result->Set(StageMetric("runtime", stage, "op_overhead_frac"),
                stages[s].op_overhead_frac / n, "fraction");
    result->Set(StageMetric("runtime", stage, "starved_frac"), stages[s].starved_frac / n,
                "fraction");
    result->Set(StageMetric("runtime", stage, "backpressure_frac"),
                stages[s].backpressure_frac / n, "fraction");
    result->Set(StageMetric("runtime", stage, "weight_sync_frac"),
                stages[s].weight_sync_frac / n, "fraction");
    result->Set(StageMetric("runtime", stage, "unaccounted_frac"),
                stages[s].unaccounted_frac / n, "fraction");
  }

  std::vector<double> edges_ms;
  for (const auto& [begin, end] : epochs) {
    int64_t first = end;
    int64_t last = begin;
    for (const auto& [s, e] : worker_spans) {
      if (s >= begin && e <= end) {
        first = std::min(first, s);
        last = std::max(last, e);
      }
    }
    if (last > first) {
      edges_ms.push_back(static_cast<double>((end - begin) - (last - first)) * 1e-6);
    }
  }
  result->Set("runtime.epoch_edge_ms", Median(edges_ms), "ms");
}

void RunUntraced(const RunConfig& config, const TrainSpec& spec, const PipelinePlan& plan,
                 Result* result) {
  const std::string checkpoint_dir = config.scratch_dir + "/checkpoints";
  std::vector<double> setup_seconds;
  std::unique_ptr<TrainRig> rig;
  while (MoreSetUps(setup_seconds)) {
    rig.reset();
    const double t0 = NowSeconds();
    rig = BuildRig(spec, plan, config.seed, checkpoint_dir);
    setup_seconds.push_back(NowSeconds() - t0);
  }
  const Phase phase = RunEpochs(rig->trainer.get(), config.seconds);
  SetSetupMetric(setup_seconds, result);
  result->Set("throughput_per_s", phase.SamplesPerSecond(spec.batch), "1/s");
  SetLatencyMetrics(phase.epoch_seconds, {}, 0.0, result);
  Say("throughput: %.1f samples/s over %lld minibatches in %.3f s\n",
      phase.SamplesPerSecond(spec.batch), static_cast<long long>(phase.minibatches),
      phase.wall);
  result->attempted = phase.minibatches + rig->warmup_minibatches;
  result->failed = phase.failed_minibatches + CheckLossFell(*rig, phase) +
                   (rig->warmup_failures > 0 ? rig->warmup_minibatches : 0);
  rig.reset();
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
}

void RunTraced(const RunConfig& config, const TrainSpec& spec, const PipelinePlan& plan,
               int num_layers, Result* result) {
  const std::string checkpoint_dir = config.scratch_dir + "/checkpoints";
  const double phase_seconds = config.seconds * 0.4;

  // Untraced reference phase.
  std::vector<double> untraced_losses;
  double untraced_rate = 0.0;
  int64_t failed = 0;
  int64_t attempted = 0;
  {
    const auto rig = BuildRig(spec, plan, config.seed, checkpoint_dir);
    const Phase phase = RunEpochs(rig->trainer.get(), phase_seconds);
    untraced_losses = phase.losses;
    untraced_rate = phase.SamplesPerSecond(spec.batch);
    attempted += phase.minibatches;
    failed += phase.failed_minibatches + CheckLossFell(*rig, phase);
  }
  // The single-worker baseline: the same task on a 1-stage plan with the full kernel budget.
  {
    const PipelinePlan one = MakePlanFromShape({{num_layers, 1}});
    TrainSpec one_spec = spec;
    one_spec.transport = TransportKind::kInProc;
    const auto rig = BuildRig(one_spec, one, config.seed, checkpoint_dir);
    const Phase phase = RunEpochs(rig->trainer.get(), std::min(2.0, config.seconds * 0.2));
    result->Set("runtime.one_worker_samples_per_s", phase.SamplesPerSecond(spec.batch), "1/s");
  }

  // Traced phase, from an identical set-up.
  const auto rig = BuildRig(spec, plan, config.seed, checkpoint_dir);
  obs::MetricsRegistry::Get().Reset();
  BufferPool::Get()->ResetStats();
  obs::ClearTrace();
  obs::StartTracing();
  const int64_t t0_ns = obs::TraceClockNs();
  const Phase phase = RunEpochs(rig->trainer.get(), phase_seconds);
  const int64_t t1_ns = obs::TraceClockNs();
  const PoolStats pool = BufferPool::Get()->Snapshot();
  const double ops = static_cast<double>(phase.minibatches);
  const double messages =
      static_cast<double>(obs::MetricsRegistry::Get().GetCounter("transport/messages_sent")->value());
  const double bytes =
      static_cast<double>(obs::MetricsRegistry::Get().GetCounter("transport/bytes_sent")->value());
  attempted += phase.minibatches;
  failed += phase.failed_minibatches + CheckLossFell(*rig, phase);

  // The runtime is deterministic: the traced run must reproduce the untraced losses bitwise.
  const size_t common = std::min(untraced_losses.size(), phase.losses.size());
  for (size_t e = 0; e < common; ++e) {
    if (std::memcmp(&untraced_losses[e], &phase.losses[e], sizeof(double)) != 0) {
      Say("CHECK FAILED: epoch %zu loss %.17g untraced vs %.17g traced\n", e,
          untraced_losses[e], phase.losses[e]);
      failed += phase.epoch_minibatches[e];
    }
  }
  Say("loss check: %zu epochs bitwise identical between the untraced and traced runs\n",
      common);

  const double traced_rate = phase.SamplesPerSecond(spec.batch);
  result->Set("obs.trace_overhead_frac", (untraced_rate - traced_rate) / untraced_rate,
              "fraction");
  result->Set("tensor.pool_hit_rate",
              pool.allocations > 0 ? static_cast<double>(pool.hits) /
                                         static_cast<double>(pool.allocations)
                                   : 0.0,
              "fraction");
  result->Set("tensor.heap_allocs_per_op", static_cast<double>(pool.HeapAllocations()) / ops,
              "count");
  result->Set("tensor.pool_peak_mb", static_cast<double>(pool.peak_bytes_in_flight) / 1048576.0,
              "MB");
  result->Set("runtime.transport.messages_per_op", messages / ops, "count");
  result->Set("runtime.transport.bytes_per_op", bytes / ops, "B");

  const std::vector<StageCompute> compute = MeasureStageCompute(spec, *rig, plan);
  double bound = 1e300;
  for (int s = 0; s < plan.num_stages(); ++s) {
    const StageCompute& c = compute[static_cast<size_t>(s)];
    Say("stage %d isolated: fwd %.4f ms, bwd %.4f ms, step %.4f ms, replicas %d\n", s,
        c.fwd * 1e3, c.bwd * 1e3, c.step * 1e3, plan.stage(s).replicas);
    result->Set(StageMetric("graph", s, "fwd_ms"), c.fwd * 1e3, "ms");
    result->Set(StageMetric("graph", s, "bwd_ms"), c.bwd * 1e3, "ms");
    result->Set(StageMetric("optim", s, "step_ms"), c.step * 1e3, "ms");
    bound = std::min(bound, plan.stage(s).replicas * static_cast<double>(spec.batch) / c.Total());
  }
  result->Set("runtime.pipeline_efficiency", untraced_rate / bound, "fraction");
  Say("throughput: untraced %.1f, traced %.1f, slowest-stage bound %.1f samples/s\n",
      untraced_rate, traced_rate, bound);
  const std::vector<obs::CollectedEvent> events = obs::CollectEvents();
  if (obs::DroppedEvents() > 0) {
    Say("warning: the trace ring dropped %lld events; budgets undercount\n",
        static_cast<long long>(obs::DroppedEvents()));
  }
  DeriveBudgets(events, t0_ns, t1_ns, compute, result);

  ProbeOptions probes;
  probes.hop_transport = spec.transport;
  probes.hop_shape = spec.vgg ? std::vector<int64_t>{32, 16, 8, 8} : std::vector<int64_t>{256, 64};
  probes.scratch_dir = config.scratch_dir;
  RunProbes(probes, result);
  obs::StopTracing();
  if (!obs::WriteTrace(config.trace_path)) {
    ++failed;
  }
  Say("trace: %s\n", config.trace_path.c_str());
  result->attempted = attempted;
  result->failed = failed;
}

}  // namespace

void RunTraining(const RunConfig& config, Result* result) {
  const TrainSpec spec = SpecFor(config.workload);
  const PipelinePlan plan = MakePlanFromShape(spec.shape);
  const int num_layers = static_cast<int>(MakeModel(spec, 1)->size());
  plan.Validate(num_layers);
  NoteThreads(spec, plan, num_layers);
  if (config.trace) {
    RunTraced(config, spec, plan, num_layers, result);
  } else {
    RunUntraced(config, spec, plan, result);
  }
}

}  // namespace perfbench
