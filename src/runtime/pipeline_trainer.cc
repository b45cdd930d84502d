#include "src/runtime/pipeline_trainer.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/checkpoint.h"
#include "src/tensor/ops.h"

namespace pipedream {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Flattens [B, T] sequence targets to the [B*T] layout per-token losses expect.
Tensor FlattenTargets(const Tensor& targets) {
  if (targets.rank() <= 1) {
    return targets;
  }
  return targets.Reshaped({targets.numel()});
}

int64_t Lcm(int64_t a, int64_t b) { return a / std::gcd(a, b) * b; }

// Times a scope into a registry histogram (seconds). Unlike ScopedSpan this is always on —
// the metrics registry is the runtime's permanent record, not an opt-in trace. When a
// straggler detector is attached the same duration also feeds its per-stage baseline.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(obs::Histogram* hist, obs::StragglerDetector* straggler = nullptr,
                           int stage = -1)
      : hist_(hist), straggler_(straggler), stage_(stage), t0_(obs::TraceClockNs()) {}
  ~ScopedHistTimer() {
    const double seconds = static_cast<double>(obs::TraceClockNs() - t0_) * 1e-9;
    hist_->Observe(seconds);
    if (straggler_ != nullptr) {
      straggler_->Observe(stage_, seconds);
    }
  }

  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  obs::Histogram* hist_;
  obs::StragglerDetector* straggler_;
  int stage_;
  int64_t t0_;
};

}  // namespace

// One stage replica: the runtime equivalent of a GPU worker.
struct PipelineTrainer::StageRuntime {
  // --- static configuration
  PipelineTrainer* trainer = nullptr;
  int stage = 0;
  int replica = 0;
  int stage_replicas = 1;  // the plan's replica count (fixed)
  bool is_input = false;
  bool is_output = false;
  std::unique_ptr<Sequential> model;
  std::vector<Parameter*> params;
  std::unique_ptr<Optimizer> optimizer;
  WeightMode weight_mode = WeightMode::kStashing;  // resolved per stage at construction
  bool recompute = false;  // activation recomputation, resolved per stage at construction
  std::unique_ptr<WeightStore> weights;
  std::unique_ptr<MinibatchLoader> loader;  // input stages only
  GradientAllReducer* reducer = nullptr;    // replicated stages only
  Mailbox* mailbox = nullptr;  // this worker's transport endpoint (owned by the transport)

  // --- round-robin rotation (rebalanced when a dead replica is ejected)
  int rr_rank = 0;  // position in the stage's active rotation
  int rr_size = 1;  // size of the stage's active rotation

  // --- liveness (worker thread writes, watchdog reads)
  std::atomic<int64_t> last_beat_ms{0};
  std::atomic<uint64_t> work_items{0};  // forwards+backwards completed this attempt
  std::atomic<bool> done{false};
  std::atomic<bool> dead{false};

  // --- per-epoch state (owned by the worker thread during an epoch)
  int64_t epoch_begin = 0;
  int64_t epoch_end = 0;
  std::map<int64_t, ModelContext> contexts;
  std::map<int64_t, Tensor> recompute_inputs;  // stage inputs kept for recomputation
  int accumulated = 0;  // backwards since the last Step (gradient accumulation)

  // --- metrics
  double loss_sum = 0.0;
  int64_t loss_count = 0;
  int64_t peak_stash_bytes = 0;               // logical (full-clone-equivalent) stash bytes
  int64_t peak_materialized_stash_bytes = 0;  // COW-aware: bytes stashes actually own
  int64_t peak_activation_bytes = 0;

  // Registry metrics, resolved once per replica (name lookup off the hot path). Shared by
  // all replicas of a stage — every underlying cell is thread-safe.
  obs::Histogram* fwd_hist = nullptr;    // runtime/stage<N>/fwd_seconds
  obs::Histogram* bwd_hist = nullptr;    // runtime/stage<N>/bwd_seconds
  obs::Histogram* step_hist = nullptr;   // runtime/stage<N>/step_seconds
  obs::Gauge* depth_gauge = nullptr;     // runtime/stage<N>/mailbox_depth_hwm
  obs::Histogram* stall_frac = nullptr;  // runtime/stage<N>/stall_fraction (per epoch)
  obs::Gauge* alive_gauge = nullptr;     // runtime/stage<N>/alive (watchdog-maintained)
  obs::Gauge* beat_age_gauge = nullptr;  // runtime/stage<N>/beat_age_ms (worst replica)
  int64_t epoch_stall_ns = 0;            // time spent waiting for work this epoch attempt

  int64_t ActivationStashBytes() const {
    int64_t total = 0;
    for (const auto& [mb, ctx] : contexts) {
      total += ctx.SizeBytes();
    }
    for (const auto& [mb, input] : recompute_inputs) {
      total += input.SizeBytes();
    }
    return total;
  }

  void Beat() { last_beat_ms.store(NowMillis(), std::memory_order_release); }

  void ThrowIfEpochAborted() const {
    if (trainer->epoch_abort_.load(std::memory_order_acquire)) {
      throw EpochAbortedError{};
    }
  }

  void PrepareEpoch(int64_t begin, int64_t end);
  void DoForward(int64_t minibatch, PipeMessage message);
  void DoBackward(PipeMessage message);
  // Applies the gradients of the `accumulated` backwards since the last Step, the last of
  // which was `minibatch`: scale to their mean, all-reduce across the replicas, and step.
  void DoStep(int64_t minibatch);
};

PipelineTrainer::PipelineTrainer(const Sequential& model, const PipelinePlan& plan,
                                 const Loss* loss, const Optimizer& optimizer_prototype,
                                 const Dataset* dataset, int64_t batch_size, uint64_t seed,
                                 PipelineTrainerOptions options)
    : plan_(plan),
      loss_(loss),
      dataset_(dataset),
      batch_size_(batch_size),
      seed_(seed),
      options_(options),
      num_model_layers_(static_cast<int>(model.size())),
      optimizer_prototype_(optimizer_prototype.CloneFresh()) {
  plan_.Validate(num_model_layers_);
  PD_CHECK(loss != nullptr);
  PD_CHECK(dataset != nullptr);
  if (IsFlushFamily(options_.schedule)) {
    PD_CHECK_EQ(plan_.total_workers(), plan_.num_stages())
        << "the " << ScheduleKindName(options_.schedule)
        << " schedule requires an unreplicated pipeline";
    // Weights do not change between a round's forward and backward passes, so versioning is
    // unnecessary (this is exactly GPipe's correctness argument).
    options_.weight_mode = WeightMode::kNaive;
  } else if (options_.schedule == ScheduleKind::kInterleaved) {
    PD_CHECK_GE(options_.interleave_chunks, 1);
    PD_CHECK(plan_.IsStraight())
        << "interleaved virtual stages require an unreplicated straight pipeline";
    PD_CHECK_EQ(plan_.num_stages() % options_.interleave_chunks, 0)
        << "interleaved plan has " << plan_.num_stages() << " chunk-stages, not a multiple "
        << "of " << options_.interleave_chunks << " chunks per worker";
  }
  PD_CHECK_GE(options_.accumulation_steps, 1);
  for (int s = 0; s < plan_.num_stages(); ++s) {
    switch (StageWeightMode(s)) {
      case WeightMode::kVerticalSync:
        PD_CHECK(plan_.IsStraight() || plan_.num_stages() == 1)
            << "vertical sync is implemented for straight pipelines";
        break;
      case WeightMode::kDoubleBuffered:
        // Two buffers cover the in-flight minibatches only when at most one update commits
        // between any minibatch's forward and backward — i.e. the accumulation boundary is
        // at least this stage's 1F1B admission depth (the 2BW paper's m >= d requirement).
        PD_CHECK_GE(options_.accumulation_steps, StartupDepth(plan_, s))
            << "2BW at stage " << s << " needs accumulation_steps >= its in-flight depth "
            << StartupDepth(plan_, s);
        break;
      case WeightMode::kNaive:
      case WeightMode::kStashing:
        break;
    }
    if (StageRecompute(s) && !IsFlushFamily(options_.schedule)) {
      // Recomputation re-runs the forward under the stashed weights, which requires a
      // weight version that is pinned per minibatch. (Flush-family rounds never commit an
      // update between a minibatch's forward and backward, so kNaive is already safe.)
      PD_CHECK(StageWeightMode(s) != WeightMode::kNaive)
          << "activation recomputation under 1F1B-family schedules requires a versioned "
          << "weight mode at stage " << s;
    }
  }

  // Keep a pristine full copy for AssembleModel's structure and for recovery when no
  // checkpoint exists yet.
  template_model_ = model.Clone();

  // Every worker inbox is an endpoint of this one transport, so no runtime component ever
  // routes around it.
  transport_ = MakeTransport(options_.transport);

  const int num_stages = plan_.num_stages();
  stage_reducers_.resize(static_cast<size_t>(num_stages));
  by_stage_.resize(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    const StageAssignment& assignment = plan_.stage(s);
    if (assignment.replicas > 1) {
      stage_reducers_[static_cast<size_t>(s)] =
          std::make_unique<GradientAllReducer>(assignment.replicas);
    }
    for (int r = 0; r < assignment.replicas; ++r) {
      auto rt = std::make_unique<StageRuntime>();
      rt->trainer = this;
      rt->stage = s;
      rt->replica = r;
      rt->stage_replicas = assignment.replicas;
      rt->rr_rank = r;
      rt->rr_size = assignment.replicas;
      rt->is_input = s == 0;
      rt->is_output = s == num_stages - 1;
      rt->model = model.CloneSlice(static_cast<size_t>(assignment.begin_layer),
                                   static_cast<size_t>(assignment.end_layer));
      rt->params = rt->model->Params();
      rt->optimizer = optimizer_prototype.CloneFresh();
      rt->weight_mode = StageWeightMode(s);
      rt->recompute = StageRecompute(s);
      rt->weights = std::make_unique<WeightStore>(rt->params, rt->weight_mode);
      rt->reducer = stage_reducers_[static_cast<size_t>(s)].get();
      rt->mailbox = transport_->AddEndpoint(s, r);
      if (rt->is_input) {
        rt->loader = std::make_unique<MinibatchLoader>(dataset_, batch_size_, seed_);
      }
      rt->fwd_hist = obs::GetHistogram(StrFormat("runtime/stage%d/fwd_seconds", s));
      rt->bwd_hist = obs::GetHistogram(StrFormat("runtime/stage%d/bwd_seconds", s));
      rt->step_hist = obs::GetHistogram(StrFormat("runtime/stage%d/step_seconds", s));
      rt->depth_gauge = obs::GetGauge(StrFormat("runtime/stage%d/mailbox_depth_hwm", s));
      rt->stall_frac = obs::GetHistogram(StrFormat("runtime/stage%d/stall_fraction", s));
      rt->alive_gauge = obs::GetGauge(StrFormat("runtime/stage%d/alive", s));
      rt->beat_age_gauge = obs::GetGauge(StrFormat("runtime/stage%d/beat_age_ms", s));
      rt->alive_gauge->Set(1);  // every stage starts healthy; the watchdog takes over
      by_stage_[static_cast<size_t>(s)].push_back(rt.get());
      runtimes_.push_back(std::move(rt));
    }
  }
  active_by_stage_ = by_stage_;
  bubbles_ = std::make_unique<obs::BubbleAccountant>(num_stages);
  straggler_ = std::make_unique<obs::StragglerDetector>(num_stages);
  // Arm the live pipeline-health endpoint if PIPEDREAM_HEALTH_SOCK names a socket path.
  // Idempotent and process-wide: a re-planned trainer reuses the running server.
  health_ = obs::StartHealthServerFromEnv();
  const Status started = transport_->Start();
  PD_CHECK(started.ok()) << "transport start failed: " << started.ToString();

  // Position the trainer on the global epoch grid. A re-planned trainer picks up exactly
  // where its predecessor stopped: same minibatch stream, new plan. epoch_length() also
  // validates any epoch_length override against this plan's synchronization round.
  PD_CHECK_GE(options_.start_epoch, 0);
  const int64_t bpe = epoch_length();
  epochs_completed_ = options_.start_epoch;
  next_global_minibatch_ = options_.start_epoch * bpe;
}

PipelineTrainer::~PipelineTrainer() = default;

WeightMode PipelineTrainer::StageWeightMode(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  // The global override (set explicitly, or by a flush-family schedule forcing kNaive)
  // wins; otherwise each stage runs the mode the planner assigned.
  return options_.weight_mode ? *options_.weight_mode : plan_.stage(stage).weight_mode;
}

bool PipelineTrainer::StageRecompute(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  return options_.recompute_activations || plan_.stage(stage).recompute;
}

void PipelineTrainer::EnableRecovery(CheckpointManager* manager, RecoveryOptions options) {
  PD_CHECK_GE(options.heartbeat_timeout_ms, 1);
  PD_CHECK_GE(options.progress_timeout_ms, 1);
  PD_CHECK_GE(options.worker_tick_ms, 1);
  PD_CHECK_GE(options.watchdog_poll_ms, 1);
  PD_CHECK_GE(options.max_recoveries, 1);
  PD_CHECK_GE(options.rejoin_probation_epochs, 0);
  manager_ = manager;
  recovery_ = options;
  recovery_enabled_ = true;
}

int64_t PipelineTrainer::batches_per_epoch() const {
  return ActiveRuntime(0)->loader->batches_per_epoch();
}

int PipelineTrainer::ActiveReplicas(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  return static_cast<int>(active_by_stage_[static_cast<size_t>(stage)].size());
}

PipelineTrainer::StageRuntime* PipelineTrainer::RuntimeFor(int stage,
                                                           int64_t minibatch) const {
  const auto& active = active_by_stage_[static_cast<size_t>(stage)];
  const int r = RoundRobinReplica(minibatch, static_cast<int>(active.size()));
  return active[static_cast<size_t>(r)];
}

PipelineTrainer::StageRuntime* PipelineTrainer::ActiveRuntime(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  const auto& active = active_by_stage_[static_cast<size_t>(stage)];
  PD_CHECK(!active.empty());
  return active[0];
}

void PipelineTrainer::StageRuntime::PrepareEpoch(int64_t begin, int64_t end) {
  epoch_begin = begin;
  epoch_end = end;
  contexts.clear();
  recompute_inputs.clear();
  accumulated = 0;
}

void PipelineTrainer::StageRuntime::DoForward(int64_t minibatch, PipeMessage message) {
  ScopedHistTimer fwd_timer(fwd_hist, trainer->straggler_.get(), stage);
  PD_TRACE_SPAN("fwd", stage, minibatch);
  // Causal flow: one "mb" chain per minibatch, started at the input stage's forward and
  // threaded through every later hop. Recorded inside the fwd span so Perfetto binds the
  // arrow to the enclosing slice.
  const int64_t flow = message.trace_id >= 0 ? message.trace_id : minibatch;
  if (is_input) {
    obs::RecordFlowStart("mb", flow, stage, minibatch);
  } else {
    obs::RecordFlowStep("mb", flow, stage, minibatch);
  }
  weights->BeginForward(minibatch, message.input_version);
  Tensor out;
  if (recompute) {
    // Keep only the stage input; the full context is rebuilt at backward time under the
    // same (stashed) weights.
    ModelContext scratch;
    out = model->Forward(message.payload, &scratch, /*training=*/true);
    recompute_inputs[minibatch] = message.payload;
  } else {
    ModelContext& ctx = contexts[minibatch];
    out = model->Forward(message.payload, &ctx, /*training=*/true);
  }
  weights->EndForward(minibatch);
  peak_stash_bytes = std::max(peak_stash_bytes, weights->StashBytes());
  peak_materialized_stash_bytes =
      std::max(peak_materialized_stash_bytes, weights->MaterializedStashBytes());
  peak_activation_bytes = std::max(peak_activation_bytes, ActivationStashBytes());

  if (is_output) {
    // Compute the loss locally; the backward pass becomes ready immediately.
    Tensor grad;
    const double loss_value =
        trainer->loss_->Compute(out, FlattenTargets(message.targets), &grad);
    loss_sum += loss_value;
    ++loss_count;
    PipeMessage backward;
    backward.minibatch = minibatch;
    backward.type = WorkType::kBackward;
    backward.payload = std::move(grad);
    backward.trace_id = flow;
    trainer->Send(this, stage, std::move(backward));
  } else {
    PipeMessage forward;
    forward.minibatch = minibatch;
    forward.type = WorkType::kForward;
    forward.payload = std::move(out);
    forward.targets = std::move(message.targets);
    forward.input_version = message.input_version;
    forward.trace_id = flow;
    trainer->Send(this, stage + 1, std::move(forward));
  }
}

void PipelineTrainer::StageRuntime::DoBackward(PipeMessage message) {
  const int64_t minibatch = message.minibatch;
  ScopedHistTimer bwd_timer(bwd_hist, trainer->straggler_.get(), stage);
  PD_TRACE_SPAN("bwd", stage, minibatch);
  // The causal chain ends where the gradient comes home: stage 0's backward.
  const int64_t flow = message.trace_id >= 0 ? message.trace_id : minibatch;
  if (stage == 0) {
    obs::RecordFlowEnd("mb", flow, stage, minibatch);
  } else {
    obs::RecordFlowStep("mb", flow, stage, minibatch);
  }

  weights->BeginBackward(minibatch);
  ModelContext recomputed;
  ModelContext* ctx;
  if (recompute) {
    const auto input_it = recompute_inputs.find(minibatch);
    PD_CHECK(input_it != recompute_inputs.end())
        << "backward for minibatch " << minibatch << " without a stashed input";
    // Rebuild the activation stash with the stashed weights already swapped in — the
    // recomputed forward is bit-identical to the original for deterministic layers.
    model->Forward(input_it->second, &recomputed, /*training=*/true);
    peak_activation_bytes =
        std::max(peak_activation_bytes, ActivationStashBytes() + recomputed.SizeBytes());
    recompute_inputs.erase(input_it);
    ctx = &recomputed;
  } else {
    const auto ctx_it = contexts.find(minibatch);
    PD_CHECK(ctx_it != contexts.end())
        << "backward for minibatch " << minibatch << " without a stashed forward context";
    ctx = &ctx_it->second;
  }
  if (accumulated == 0) {
    model->ZeroGrads();  // gradients aggregate until the next Step
  }
  Tensor grad_in = model->Backward(message.payload, ctx);
  contexts.erase(minibatch);
  weights->EndBackward(minibatch);
  ++accumulated;
  if (stage > 0) {
    PipeMessage backward;
    backward.minibatch = minibatch;
    backward.type = WorkType::kBackward;
    backward.payload = std::move(grad_in);
    backward.trace_id = flow;
    trainer->Send(this, stage - 1, std::move(backward));
  }
}

void PipelineTrainer::StageRuntime::DoStep(int64_t minibatch) {
  PD_CHECK_GT(accumulated, 0) << "Step at stage " << stage << " with no gradients";
  if (accumulated > 1) {
    const float inv = 1.0f / static_cast<float>(accumulated);
    for (Parameter* p : params) {
      Scale(&p->grad, inv);
    }
  }
  if (reducer != nullptr) {
    int slot;
    int participants;
    if (accumulated > 1) {
      // Update rounds are aligned across replicas (one step per `accumulation` of each
      // replica's own minibatches), so every active replica participates.
      slot = rr_rank;
      participants = rr_size;
    } else {
      // Per-minibatch rounds cover rr_size consecutive minibatches. A degraded rotation
      // may leave a short tail round whose membership is smaller; derive both the round
      // size and this replica's slot from the minibatch id so all participants agree.
      const int64_t group_begin = minibatch - (minibatch - epoch_begin) % rr_size;
      participants = static_cast<int>(std::min<int64_t>(rr_size, epoch_end - group_begin));
      slot = static_cast<int>(minibatch - group_begin);
    }
    // A long wait inside the collective is a bubble like any other, but with a distinct
    // cause: replicas pacing each other for weight synchronization.
    const int64_t sync_begin_ns = obs::TraceClockNs();
    if (!reducer->AllReduce(slot, params, participants)) {
      throw EpochAbortedError{};
    }
    const int64_t sync_ns = obs::TraceClockNs() - sync_begin_ns;
    if (sync_ns > 10'000) {
      obs::RecordSpan(obs::StallCauseSpanName(obs::StallCause::kWeightSync), sync_begin_ns,
                      sync_ns, stage);
      trainer->bubbles_->Add(stage, obs::StallCause::kWeightSync, sync_ns);
    }
  }
  {
    ScopedHistTimer step_timer(step_hist);
    PD_TRACE_SPAN("step", stage, minibatch);
    weights->BeginUpdate();  // 2BW: park the pre-update weights in the shadow buffer
    optimizer->Step(params);
    weights->CommitUpdate();
  }
  peak_stash_bytes = std::max(peak_stash_bytes, weights->StashBytes());
  peak_materialized_stash_bytes =
      std::max(peak_materialized_stash_bytes, weights->MaterializedStashBytes());
  accumulated = 0;
}

void PipelineTrainer::RunWorker(const WorkerProgram& program,
                                const std::vector<StageRuntime*>& owned,
                                StageRuntime** current) {
  const auto tick = std::chrono::milliseconds(recovery_.worker_tick_ms);
  // The watchdog tracks heartbeats per stage runtime; a worker waiting on one of its chunks
  // must not let its other chunks look dead.
  const auto beat_all = [&owned] {
    for (StageRuntime* rt : owned) {
      rt->Beat();
    }
  };
  beat_all();
  for (const Instr& instr : program.instrs) {
    StageRuntime* rt = *std::find_if(owned.begin(), owned.end(), [&](StageRuntime* candidate) {
      return candidate->stage == instr.stage;
    });
    *current = rt;
    rt->ThrowIfEpochAborted();
    if (instr.op == OpCode::kStep) {
      rt->DoStep(instr.minibatch);
      continue;
    }
    if (instr.op == OpCode::kFlush) {
      if (!flush_barrier_->Arrive()) {
        throw EpochAbortedError{};
      }
      continue;
    }
    // Each op consumes exactly the message its instruction names, whatever order messages
    // arrive in: that makes the trajectory independent of thread timing, and since the
    // programs are a feasible execution, the wait always ends. Stage 0's forwards read
    // their minibatch from the loader instead.
    const WorkType type = WorkTypeOf(instr.op);
    const bool from_loader = type == WorkType::kForward && rt->is_input;
    const int64_t wait_begin_ns = obs::TraceClockNs();
    if (!from_loader) {
      const auto ready = [&](int64_t min_fwd, int64_t min_bwd) {
        return (type == WorkType::kForward ? min_fwd : min_bwd) == instr.minibatch;
      };
      // Deadline-bounded wait: regain control every tick to heartbeat and observe aborts,
      // so a dead upstream can never wedge this worker forever.
      while (!rt->mailbox->WaitUntilFor(ready, tick)) {
        beat_all();
        rt->ThrowIfEpochAborted();
      }
    }
    beat_all();
    const int64_t waited_ns = obs::TraceClockNs() - wait_begin_ns;
    if (waited_ns > 10'000) {  // ignore sub-10µs predicate churn; count real starvation
      rt->epoch_stall_ns += waited_ns;
      // Attribute the bubble by what we waited for: a forward from a neighbour means the
      // *upstream* was late (starvation); a gradient coming back means the *downstream*
      // side of the loop is the bottleneck (backpressure). Weight-sync and recovery bubbles
      // are attributed at their own sites, not here.
      const obs::StallCause cause = type == WorkType::kForward
                                        ? obs::StallCause::kStarvedUpstream
                                        : obs::StallCause::kBackpressuredDownstream;
      obs::RecordSpan(obs::StallCauseSpanName(cause), wait_begin_ns, waited_ns, rt->stage);
      bubbles_->Add(rt->stage, cause, waited_ns);
    }
    // Consult the fault plan with the minibatch this op is about to process.
    if (injector_ != nullptr) {
      const FaultInjector::WorkerAction fate =
          injector_->OnWorkStart(rt->stage, rt->replica, instr.minibatch, type);
      if (fate.kill) {
        throw WorkerKilledError{fate.reason};
      }
      if (fate.stall_ms > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(fate.stall_ms));
        beat_all();
      }
    }
    PipeMessage message;
    if (from_loader) {
      rt->loader->BatchAt(instr.minibatch, &message.payload, &message.targets);
      message.input_version = rt->weights->version();
    } else {
      std::optional<PipeMessage> taken = rt->mailbox->Take(type);
      PD_CHECK(taken.has_value());
      PD_CHECK_EQ(taken->minibatch, instr.minibatch);
      if (!VerifyChecksum(*taken)) {
        throw MessageCorruptionError{
            StrFormat("%s payload for minibatch %lld failed its checksum at stage %d",
                      WorkTypeName(type), static_cast<long long>(instr.minibatch), rt->stage)};
      }
      message = std::move(*taken);
    }
    if (type == WorkType::kForward) {
      rt->DoForward(instr.minibatch, std::move(message));
    } else {
      rt->DoBackward(std::move(message));
    }
    rt->work_items.fetch_add(1, std::memory_order_release);
    beat_all();
  }
}

void PipelineTrainer::Send(StageRuntime* from, int dest_stage, PipeMessage message) {
  if (message.trace_id < 0) {
    // Training messages are keyed by minibatch; any hop that forgot to thread the id
    // through still joins the right causal chain.
    message.trace_id = message.minibatch;
  }
  StampChecksum(&message);
  if (injector_ != nullptr) {
    const FaultInjector::MessageAction fate =
        injector_->OnSend(from->stage, from->replica, message.minibatch, message.type);
    if (fate.drop) {
      PD_LOG(WARNING) << fate.reason;
      return;
    }
    if (fate.delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(fate.delay_ms));
      from->Beat();
    }
    if (fate.corrupt) {
      // After StampChecksum, so the receiver's verification catches it.
      CorruptBytes(message.payload.data(),
                   static_cast<size_t>(message.payload.SizeBytes()));
    }
  }
  // Route by the active rotation (a degraded stage re-maps minibatches to survivors), but
  // address the transport endpoint by the destination's fixed plan coordinates.
  StageRuntime* dest = RuntimeFor(dest_stage, message.minibatch);
  transport_->Send(dest->stage, dest->replica, std::move(message));
}

void PipelineTrainer::NoteFailure(StageRuntime* rt, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    FailureRecord record;
    record.epoch = epochs_completed_;
    if (rt != nullptr) {
      record.stage = rt->stage;
      record.replica = rt->replica;
    }
    record.reason = reason;
    record.worker_dead = rt != nullptr && rt->dead.load(std::memory_order_acquire);
    last_failure_epoch_ = epochs_completed_;  // any failure restarts rejoin probation
    failures_.push_back(std::move(record));
  }
  PD_LOG(WARNING) << "failure detected: " << reason;
  obs::GetCounter("runtime/failures")->Increment();
  PD_TRACE_INSTANT("failure");
  // Start the recovery-latency clock at the FIRST failure of a burst (coincident failures
  // are resolved by one recovery pass, whose latency is what the operator feels).
  int64_t expected = 0;
  failure_noted_ns_.compare_exchange_strong(expected, obs::TraceClockNs());
  epoch_abort_.store(true, std::memory_order_release);
  // Wake every blocked worker: mailbox waiters re-check the abort flag, collective waiters
  // observe the abort and unwind.
  for (auto& runtime : runtimes_) {
    runtime->mailbox->Poke();
  }
  for (auto& reducer : stage_reducers_) {
    if (reducer != nullptr) {
      reducer->Abort();
    }
  }
  if (flush_barrier_ != nullptr) {
    flush_barrier_->Abort();
  }
}

int64_t PipelineTrainer::epoch_length() const {
  // Replicated stages synchronize gradients in rounds of `replicas` minibatches, and GPipe
  // flushes in rounds of `microbatches`; an epoch must be a whole number of every such round
  // or the last collective would wait forever. Truncate to the least common multiple (the
  // dropped tail batches are few and deterministic). Always computed from the PLAN's replica
  // counts — not the possibly-degraded active rotation — so epoch boundaries stay aligned
  // across recoveries.
  int64_t round = 1;
  for (const StageAssignment& stage : plan_.stages()) {
    round = Lcm(round, stage.replicas);
  }
  if (options_.schedule == ScheduleKind::kGPipe ||
      options_.schedule == ScheduleKind::kPipeDreamFlush) {
    round = Lcm(round, options_.gpipe_microbatches);
  }
  if ((options_.schedule == ScheduleKind::kOneFOneB ||
       options_.schedule == ScheduleKind::kInterleaved) &&
      options_.accumulation_steps > 1) {
    // Update boundaries must also land on epoch boundaries: a tail shorter than one
    // accumulation round would silently drop its gradients, and 2BW recovery relies on the
    // accumulator being empty (and the shadow buffer dead) at every epoch boundary.
    round = Lcm(round, options_.accumulation_steps);
  }
  if (options_.epoch_length > 0) {
    // The elastic layer pins one epoch length across plan generations so checkpoints from
    // different plans land on the same global minibatch grid. It still has to be a whole
    // number of THIS plan's synchronization rounds.
    PD_CHECK_EQ(options_.epoch_length % round, 0)
        << "epoch_length " << options_.epoch_length
        << " is not a multiple of the plan's synchronization round " << round;
    PD_CHECK_GE(options_.epoch_length, plan_.Noam()) << "epoch shorter than the pipeline depth";
    return options_.epoch_length;
  }
  const int64_t bpe = batches_per_epoch() / round * round;
  PD_CHECK_GT(bpe, 0) << "dataset too small for one synchronization round per epoch";
  PD_CHECK_GE(bpe, plan_.Noam()) << "epoch shorter than the pipeline depth";
  return bpe;
}

bool PipelineTrainer::RunRange(int64_t begin, int64_t end, EpochStats* stats) {
  epoch_abort_.store(false, std::memory_order_release);
  std::vector<StageRuntime*> active;
  for (const auto& stage_active : active_by_stage_) {
    active.insert(active.end(), stage_active.begin(), stage_active.end());
  }
  const int64_t now_ms = NowMillis();
  // Settle the transport before clearing inboxes: a frame still crossing a socket when the
  // previous attempt aborted must land (and be discarded) now, not mid-replay.
  transport_->Drain();
  for (StageRuntime* rt : active) {
    // Messages in flight when a previous attempt aborted must not leak into this one.
    rt->mailbox->Clear();
    rt->PrepareEpoch(begin, end);
    rt->loss_sum = 0.0;
    rt->loss_count = 0;
    rt->epoch_stall_ns = 0;
    rt->done.store(false, std::memory_order_relaxed);
    rt->dead.store(false, std::memory_order_relaxed);
    rt->work_items.store(0, std::memory_order_relaxed);
    rt->last_beat_ms.store(now_ms, std::memory_order_relaxed);
  }
  for (auto& reducer : stage_reducers_) {
    if (reducer != nullptr) {
      reducer->Reset();
    }
  }

  // Compile this attempt's programs over the active rotation: a degraded stage's survivors
  // share its minibatches, and a replay starts from the restored epoch boundary.
  std::vector<int> rotation;
  for (const auto& stage_active : active_by_stage_) {
    rotation.push_back(static_cast<int>(stage_active.size()));
  }
  ProgramSpec spec;
  spec.kind = options_.schedule;
  spec.round_size = options_.gpipe_microbatches;
  spec.chunks = options_.interleave_chunks;
  spec.accumulation = options_.accumulation_steps;
  const std::vector<WorkerProgram> programs = CompileSchedule(spec, rotation, begin, end);
  flush_barrier_ = std::make_unique<FlushBarrier>(static_cast<int>(programs.size()));

  const double start = NowSeconds();
  // Every physical worker runs kernels concurrently; split the shared pool's parallelism
  // between them so intra-op threading never oversubscribes the machine.
  const int kernel_budget = KernelBudgetForWorkers(static_cast<int>(programs.size()));
  std::vector<std::thread> threads;
  threads.reserve(programs.size());
  for (const WorkerProgram& program : programs) {
    std::vector<StageRuntime*> owned;
    for (const int s : program.stages) {
      owned.push_back(active_by_stage_[static_cast<size_t>(s)][static_cast<size_t>(program.rank)]);
    }
    threads.emplace_back([this, &program, owned = std::move(owned), kernel_budget] {
      ScopedKernelBudget budget(kernel_budget);
      obs::SetThreadLabel(owned.size() == 1
                              ? StrFormat("s%d/r%d", owned[0]->stage, owned[0]->replica)
                              : StrFormat("w%d", owned[0]->stage));
      StageRuntime* current = owned.front();
      const auto finish_all = [&owned] {
        for (StageRuntime* rt : owned) {
          rt->done.store(true, std::memory_order_release);
        }
      };
      try {
        RunWorker(program, owned, &current);
        finish_all();
      } catch (const WorkerKilledError& killed) {
        current->dead.store(true, std::memory_order_release);
        NoteFailure(current, killed.reason);
      } catch (const MessageCorruptionError& corrupt) {
        // The receiver of a corrupt payload is healthy; the minibatch it rejected is what
        // needs replaying.
        finish_all();
        NoteFailure(current, corrupt.reason);
      } catch (const EpochAbortedError&) {
        finish_all();
      }
    });
  }

  // The watchdog classifies two failure shapes the workers cannot self-report: a worker
  // gone silent (crashed/stalled — per-worker heartbeat staleness) and a wedged pipeline
  // (a lost message starves everyone while every worker still heartbeats — global progress
  // staleness). It also maintains the per-stage alive/beat_age_ms gauges that /healthz
  // reads, so it runs (in observe-only mode) whenever the health endpoint is armed even if
  // recovery is not.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog;
  const bool enforce = recovery_enabled_ || injector_ != nullptr;
  if (enforce || health_ != nullptr) {
    watchdog = std::thread([this, &active, &watchdog_stop, enforce] {
      obs::SetThreadLabel("watchdog");
      int64_t last_progress = -1;
      int64_t last_progress_ms = NowMillis();
      while (!watchdog_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(recovery_.watchdog_poll_ms));
        if (watchdog_stop.load(std::memory_order_acquire) ||
            epoch_abort_.load(std::memory_order_acquire)) {
          return;
        }
        bool all_done = true;
        int64_t progress = 0;
        const int64_t now = NowMillis();
        // Worst replica per stage: a stage is alive only if every active replica is, and
        // its published beat age is the stalest replica's.
        std::vector<int64_t> stage_beat_age(active_by_stage_.size(), 0);
        std::vector<bool> stage_alive(active_by_stage_.size(), true);
        for (StageRuntime* rt : active) {
          const size_t s = static_cast<size_t>(rt->stage);
          const bool rt_done = rt->done.load(std::memory_order_acquire);
          const int64_t age =
              rt_done ? 0 : now - rt->last_beat_ms.load(std::memory_order_acquire);
          stage_beat_age[s] = std::max(stage_beat_age[s], age);
          if (rt->dead.load(std::memory_order_acquire)) {
            stage_alive[s] = false;
          }
          progress += static_cast<int64_t>(rt->work_items.load(std::memory_order_acquire));
          if (rt_done) {
            continue;
          }
          all_done = false;
          if (enforce && age > recovery_.heartbeat_timeout_ms) {
            rt->dead.store(true, std::memory_order_release);
            rt->alive_gauge->Set(0);
            rt->beat_age_gauge->Set(age);
            NoteFailure(rt, StrFormat("heartbeat timeout: stage %d replica %d silent for "
                                      "over %d ms",
                                      rt->stage, rt->replica, recovery_.heartbeat_timeout_ms));
            return;
          }
        }
        for (size_t s = 0; s < active_by_stage_.size(); ++s) {
          StageRuntime* any = active_by_stage_[s].empty() ? nullptr : active_by_stage_[s][0];
          if (any != nullptr) {
            any->alive_gauge->Set(stage_alive[s] ? 1 : 0);
            any->beat_age_gauge->Set(stage_beat_age[s]);
          }
        }
        if (all_done) {
          return;
        }
        if (!enforce) {
          continue;  // observe-only: gauges refreshed, no failure classification
        }
        if (progress != last_progress) {
          last_progress = progress;
          last_progress_ms = now;
        } else if (now - last_progress_ms > recovery_.progress_timeout_ms) {
          NoteFailure(nullptr, StrFormat("pipeline wedged: no minibatch completed anywhere "
                                         "for over %d ms (lost message or deadlock)",
                                         recovery_.progress_timeout_ms));
          return;
        }
      }
    });
  }

  for (std::thread& t : threads) {
    t.join();
  }
  watchdog_stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) {
    watchdog.join();
  }
  // Failed attempts still count toward the epoch's wall time (recovery is not free).
  const double attempt_seconds = NowSeconds() - start;
  stats->wall_seconds += attempt_seconds;
  for (StageRuntime* rt : active) {
    rt->depth_gauge->SetMax(rt->mailbox->DepthHighWater());
    if (attempt_seconds > 0) {
      rt->stall_frac->Observe(static_cast<double>(rt->epoch_stall_ns) * 1e-9 /
                              attempt_seconds);
    }
  }
  // Close the attempt's bubble-attribution window: per-stage per-cause fractions become
  // visible to /metrics as runtime/stage<N>/bubble_frac/<cause>.
  for (int s = 0; s < plan_.num_stages(); ++s) {
    bubbles_->FinishWindow(s, attempt_seconds);
  }
  if (epoch_abort_.load(std::memory_order_acquire)) {
    return false;
  }

  stats->mean_loss = 0.0;
  stats->minibatches = 0;
  for (StageRuntime* rt : active_by_stage_.back()) {
    stats->mean_loss += rt->loss_sum;
    stats->minibatches += rt->loss_count;
  }
  if (stats->minibatches > 0) {
    stats->mean_loss /= static_cast<double>(stats->minibatches);
  }
  return true;
}

void PipelineTrainer::RestoreInitialWeights() {
  const std::vector<Parameter*> full = template_model_->Params();
  size_t cursor = 0;
  for (const auto& stage_rts : by_stage_) {
    const size_t stage_params = stage_rts[0]->params.size();
    for (StageRuntime* rt : stage_rts) {
      PD_CHECK_EQ(rt->params.size(), stage_params);
      for (size_t i = 0; i < stage_params; ++i) {
        PD_CHECK_LT(cursor + i, full.size());
        rt->params[i]->value = full[cursor + i]->value;
      }
    }
    cursor += stage_params;
  }
  PD_CHECK_EQ(cursor, full.size());
}

int64_t PipelineTrainer::HandleFailureAndRestore() {
  PD_TRACE_SPAN("recover");
  obs::GetCounter("runtime/recoveries")->Increment();
  // Decide each dead replica's fate: eject it from a replicated stage (degraded mode) when
  // allowed, otherwise revive it for a respawn on the next attempt.
  std::vector<StageRuntime*> dead;
  for (const auto& stage_active : active_by_stage_) {
    for (StageRuntime* rt : stage_active) {
      if (rt->dead.load(std::memory_order_acquire)) {
        dead.push_back(rt);
      }
    }
  }
  std::vector<std::pair<int, int>> ejected;
  for (StageRuntime* rt : dead) {
    auto& stage_active = active_by_stage_[static_cast<size_t>(rt->stage)];
    // With accumulation the survivors of a shrunken rotation could end an epoch on
    // different numbers of Steps, so only per-minibatch updates eject.
    const bool can_eject = recovery_.allow_degraded && stage_active.size() > 1 &&
                           options_.accumulation_steps == 1;
    if (can_eject) {
      stage_active.erase(std::find(stage_active.begin(), stage_active.end(), rt));
      ejected.emplace_back(rt->stage, rt->replica);
      ejected_replicas_.push_back({rt, epochs_completed_});
      PD_LOG(WARNING) << "ejecting stage " << rt->stage << " replica " << rt->replica
                      << " (degraded mode: " << stage_active.size() << " survivors)";
    } else {
      rt->dead.store(false, std::memory_order_release);
      PD_LOG(WARNING) << "respawning stage " << rt->stage << " replica " << rt->replica;
    }
  }

  // Re-balance every stage's round-robin rotation and rebuild its all-reduce ring over the
  // survivors.
  for (size_t s = 0; s < active_by_stage_.size(); ++s) {
    auto& stage_active = active_by_stage_[s];
    PD_CHECK(!stage_active.empty());
    stage_reducers_[s] =
        stage_active.size() > 1
            ? std::make_unique<GradientAllReducer>(static_cast<int>(stage_active.size()))
            : nullptr;
    for (size_t r = 0; r < stage_active.size(); ++r) {
      stage_active[r]->rr_rank = static_cast<int>(r);
      stage_active[r]->rr_size = static_cast<int>(stage_active.size());
      stage_active[r]->reducer = stage_reducers_[s].get();
    }
  }

  // Restore parameters everywhere from the newest complete checkpoint epoch (or the initial
  // weights when none survives validation).
  int64_t resume = -1;
  if (manager_ != nullptr) {
    resume = manager_->LatestCompleteEpoch(plan_.num_stages(), epochs_completed_);
  }
  if (resume >= 0) {
    const Status restored = LoadCheckpoint(*manager_, resume);
    PD_CHECK(restored.ok()) << "recovery failed to load checkpoint epoch " << resume << ": "
                            << restored.ToString();
  } else {
    RestoreInitialWeights();
  }
  // Checkpoints hold parameters only: weight-version stashes and optimizer state restart
  // fresh (bitwise replay therefore needs a stateless optimizer; see DESIGN.md).
  for (auto& rt : runtimes_) {
    rt->weights = std::make_unique<WeightStore>(rt->params, rt->weight_mode);
    rt->optimizer = optimizer_prototype_->CloneFresh();
  }

  {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    for (size_t i = resolved_failures_; i < failures_.size(); ++i) {
      failures_[i].resumed_epoch = resume;
      for (const auto& [stage, replica] : ejected) {
        if (failures_[i].stage == stage && failures_[i].replica == replica) {
          failures_[i].degraded = true;
        }
      }
    }
    resolved_failures_ = failures_.size();
  }
  const int64_t noted_ns = failure_noted_ns_.exchange(0);
  if (noted_ns != 0) {
    const int64_t recovery_ns = obs::TraceClockNs() - noted_ns;
    obs::GetHistogram("runtime/recovery_seconds")
        ->Observe(static_cast<double>(recovery_ns) * 1e-9);
    // Recovery idles the whole pipeline at once, so every stage eats the bubble.
    bubbles_->AddAll(obs::StallCause::kRecovery, recovery_ns);
  }
  return resume;
}

void PipelineTrainer::MaybeRejoinEjected() {
  if (recovery_.rejoin_probation_epochs <= 0 || ejected_replicas_.empty()) {
    return;
  }
  std::vector<size_t> rejoined_stages;
  for (auto it = ejected_replicas_.begin(); it != ejected_replicas_.end();) {
    StageRuntime* rt = it->rt;
    // Probation: the replica sits out until `rejoin_probation_epochs` consecutive epochs
    // completed cleanly since both its ejection and the cluster's last failure of any kind.
    const int64_t clean_since = std::max(it->ejected_epoch, last_failure_epoch_);
    if (epochs_completed_ - clean_since < recovery_.rejoin_probation_epochs) {
      ++it;
      continue;
    }
    // Re-admit at an update boundary: surviving replicas hold bitwise-identical weights
    // here, so the rejoiner copies replica state from any survivor. Stashes and optimizer
    // state restart fresh, exactly as they do for a respawned worker.
    auto& stage_active = active_by_stage_[static_cast<size_t>(rt->stage)];
    StageRuntime* survivor = stage_active[0];
    PD_CHECK_EQ(survivor->params.size(), rt->params.size());
    for (size_t i = 0; i < rt->params.size(); ++i) {
      rt->params[i]->value = survivor->params[i]->value;
    }
    rt->weights = std::make_unique<WeightStore>(rt->params, rt->weight_mode);
    rt->optimizer = optimizer_prototype_->CloneFresh();
    rt->dead.store(false, std::memory_order_release);
    stage_active.push_back(rt);
    // Restore the plan's original rotation order so a fully healed stage is
    // indistinguishable from one that never degraded.
    std::sort(stage_active.begin(), stage_active.end(),
              [](const StageRuntime* a, const StageRuntime* b) { return a->replica < b->replica; });
    rejoined_stages.push_back(static_cast<size_t>(rt->stage));
    PD_LOG(WARNING) << "re-admitting stage " << rt->stage << " replica " << rt->replica
                    << " after " << recovery_.rejoin_probation_epochs
                    << " clean probation epochs (" << stage_active.size() << " replicas)";
    obs::GetCounter("runtime/rejoins")->Increment();
    it = ejected_replicas_.erase(it);
  }
  // Rebuild each healed stage's rotation and all-reduce ring over the restored membership.
  for (size_t s : rejoined_stages) {
    auto& stage_active = active_by_stage_[s];
    stage_reducers_[s] =
        stage_active.size() > 1
            ? std::make_unique<GradientAllReducer>(static_cast<int>(stage_active.size()))
            : nullptr;
    for (size_t r = 0; r < stage_active.size(); ++r) {
      stage_active[r]->rr_rank = static_cast<int>(r);
      stage_active[r]->rr_size = static_cast<int>(stage_active.size());
      stage_active[r]->reducer = stage_reducers_[s].get();
    }
  }
}

EpochStats PipelineTrainer::TrainEpoch() {
  MaybeRejoinEjected();
  const int64_t bpe = epoch_length();
  const int64_t current_epoch = epochs_completed_;
  PD_CHECK_EQ(next_global_minibatch_, current_epoch * bpe)
      << "epoch grid misaligned (epoch_length must stay constant)";

  EpochStats stats;
  const size_t failures_before = failures_.size();
  int recoveries = 0;
  int64_t epoch_cursor = current_epoch;
  for (;;) {
    const int64_t begin = epoch_cursor * bpe;
    if (RunRange(begin, begin + bpe, &stats)) {
      if (recovery_enabled_ && manager_ != nullptr && recovery_.auto_checkpoint) {
        const Status saved = SaveCheckpoint(manager_, epoch_cursor);
        if (!saved.ok()) {
          PD_LOG(WARNING) << "checkpoint for epoch " << epoch_cursor
                          << " failed: " << saved.ToString();
        }
      }
      if (epoch_cursor == current_epoch) {
        break;
      }
      ++epoch_cursor;  // replaying history after a restore; continue toward the failed epoch
      continue;
    }
    PD_CHECK(recovery_enabled_)
        << "stage failure detected and recovery is not enabled: " << failures_.back().reason;
    ++recoveries;
    PD_CHECK_LE(recoveries, recovery_.max_recoveries)
        << "giving up after " << recoveries << " recoveries within one epoch; last failure: "
        << failures_.back().reason;
    const int64_t resumed = HandleFailureAndRestore();
    epoch_cursor = resumed + 1;
    PD_LOG(WARNING) << "restored from "
                    << (resumed >= 0 ? StrFormat("checkpoint epoch %lld",
                                                 static_cast<long long>(resumed))
                                     : std::string("initial weights"))
                    << "; replaying from epoch " << epoch_cursor;
  }
  next_global_minibatch_ = (current_epoch + 1) * bpe;
  ++epochs_completed_;
  stats.recoveries = recoveries;
  stats.failures_detected = static_cast<int>(failures_.size() - failures_before);
  if (stats.wall_seconds > 0 && stats.minibatches > 0) {
    obs::GetHistogram("runtime/epoch_minibatches_per_sec")
        ->Observe(static_cast<double>(stats.minibatches) / stats.wall_seconds);
  }
  return stats;
}

std::unique_ptr<Sequential> PipelineTrainer::AssembleModel() const {
  auto full = template_model_->Clone();
  std::vector<Parameter*> full_params = full->Params();
  size_t cursor = 0;
  for (int s = 0; s < plan_.num_stages(); ++s) {
    const StageRuntime* rt = ActiveRuntime(s);
    for (Parameter* p : rt->params) {
      PD_CHECK_LT(cursor, full_params.size());
      PD_CHECK(full_params[cursor]->value.SameShape(p->value))
          << "stage slice misaligned at parameter " << p->name;
      full_params[cursor]->value = p->value;
      ++cursor;
    }
  }
  PD_CHECK_EQ(cursor, full_params.size());
  return full;
}

double PipelineTrainer::EvaluateAccuracy(const Dataset& eval, int64_t eval_batch) const {
  auto model = AssembleModel();
  MinibatchLoader loader(&eval, eval_batch, /*seed=*/1);
  Tensor x;
  Tensor y;
  double correct_weighted = 0.0;
  const int64_t batches = loader.batches_per_epoch();
  for (int64_t b = 0; b < batches; ++b) {
    loader.BatchAt(b, &x, &y);
    ModelContext ctx;
    const Tensor out = model->Forward(x, &ctx, /*training=*/false);
    correct_weighted += Accuracy(out, FlattenTargets(y));
  }
  return batches > 0 ? correct_weighted / static_cast<double>(batches) : 0.0;
}

double PipelineTrainer::EvaluateLoss(const Dataset& eval, int64_t eval_batch) const {
  auto model = AssembleModel();
  MinibatchLoader loader(&eval, eval_batch, /*seed=*/1);
  Tensor x;
  Tensor y;
  Tensor grad;
  double total = 0.0;
  const int64_t batches = loader.batches_per_epoch();
  for (int64_t b = 0; b < batches; ++b) {
    loader.BatchAt(b, &x, &y);
    ModelContext ctx;
    const Tensor out = model->Forward(x, &ctx, /*training=*/false);
    total += loss_->Compute(out, FlattenTargets(y), &grad);
  }
  return batches > 0 ? total / static_cast<double>(batches) : 0.0;
}

Status PipelineTrainer::SaveCheckpoint(CheckpointManager* manager, int64_t epoch) const {
  for (int s = 0; s < plan_.num_stages(); ++s) {
    const Status status = manager->SaveStage(s, epoch, ActiveRuntime(s)->params);
    if (!status.ok()) {
      return status;
    }
  }
  // Stamp the plan manifest last: a validating manifest therefore implies every stage file
  // it names landed, which is what makes the epoch restorable under a *different* plan.
  return manager->SaveManifest(
      epoch, PlanManifest::FromPlan(plan_, num_model_layers_, options_.plan_generation));
}

Status PipelineTrainer::LoadCheckpoint(const CheckpointManager& manager, int64_t epoch) {
  // The manifest tells us which plan wrote this epoch. Same layer layout (or a legacy
  // manifest-less checkpoint): restore stage->stage as before. Different layout (the epoch
  // predates a re-plan): remap by LAYER RANGE — load the checkpoint's stages into a full
  // model, then slice it along OUR stage boundaries.
  PlanManifest manifest;
  const Status mstat = manager.LoadManifest(epoch, &manifest);
  bool same_layout = true;
  if (mstat.ok()) {
    if (manifest.num_layers != num_model_layers_) {
      return Status::InvalidArgument(
          StrFormat("checkpoint epoch %lld was written for a %d-layer model, not %d layers",
                    static_cast<long long>(epoch), manifest.num_layers, num_model_layers_));
    }
    same_layout = manifest.num_stages() == plan_.num_stages();
    for (int s = 0; same_layout && s < plan_.num_stages(); ++s) {
      same_layout = manifest.stage_layers[static_cast<size_t>(s)] ==
                    std::make_pair(plan_.stage(s).begin_layer, plan_.stage(s).end_layer);
    }
  } else if (mstat.code() != StatusCode::kNotFound) {
    return mstat;  // a torn manifest must not be silently treated as legacy
  }

  if (same_layout) {
    for (int s = 0; s < plan_.num_stages(); ++s) {
      for (StageRuntime* rt : by_stage_[static_cast<size_t>(s)]) {
        const Status status = manager.LoadStage(s, epoch, rt->params);
        if (!status.ok()) {
          return status;
        }
      }
    }
    return Status::Ok();
  }

  // Per-layer parameter spans of the full model (parameter names live on layers, so the
  // checkpoint's sliced-model names match the full model's for the same layer range).
  auto full = template_model_->Clone();
  const std::vector<Parameter*> full_params = full->Params();
  std::vector<size_t> layer_offset(static_cast<size_t>(num_model_layers_) + 1, 0);
  for (int l = 0; l < num_model_layers_; ++l) {
    layer_offset[static_cast<size_t>(l + 1)] =
        layer_offset[static_cast<size_t>(l)] + full->layer(static_cast<size_t>(l))->Params().size();
  }
  PD_CHECK_EQ(layer_offset.back(), full_params.size());
  for (int ms = 0; ms < manifest.num_stages(); ++ms) {
    const auto [begin_layer, end_layer] = manifest.stage_layers[static_cast<size_t>(ms)];
    const std::vector<Parameter*> span(
        full_params.begin() + static_cast<long>(layer_offset[static_cast<size_t>(begin_layer)]),
        full_params.begin() + static_cast<long>(layer_offset[static_cast<size_t>(end_layer)]));
    const Status status = manager.LoadStage(ms, epoch, span);
    if (!status.ok()) {
      return status;
    }
  }
  for (int s = 0; s < plan_.num_stages(); ++s) {
    const StageAssignment& stage = plan_.stage(s);
    const size_t begin = layer_offset[static_cast<size_t>(stage.begin_layer)];
    for (StageRuntime* rt : by_stage_[static_cast<size_t>(s)]) {
      PD_CHECK_EQ(rt->params.size(),
                  layer_offset[static_cast<size_t>(stage.end_layer)] - begin);
      for (size_t i = 0; i < rt->params.size(); ++i) {
        rt->params[i]->value = full_params[begin + i]->value;
      }
    }
  }
  return Status::Ok();
}

const RunningStat& PipelineTrainer::StageStaleness(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  return ActiveRuntime(stage)->weights->staleness();
}

int64_t PipelineTrainer::StagePeakStashBytes(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  return ActiveRuntime(stage)->peak_stash_bytes;
}

int64_t PipelineTrainer::StagePeakMaterializedStashBytes(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  return ActiveRuntime(stage)->peak_materialized_stash_bytes;
}

int64_t PipelineTrainer::StagePeakActivationBytes(int stage) const {
  PD_CHECK(stage >= 0 && stage < plan_.num_stages());
  return ActiveRuntime(stage)->peak_activation_bytes;
}

}  // namespace pipedream
