// Multi-threaded pipeline-parallel training runtime.
//
// One OS thread per physical worker plays the role of a GPU: it owns the stage replicas it
// hosts (one, or k chunk-stages under kInterleaved), each with a deep copy of its layer
// slice, an optimizer, and a versioned weight store, and exchanges activations/gradients
// with neighbouring stages through mailboxes. Every schedule of the zoo
// (docs/SCHEDULES.md) — 1F1B, GPipe, model parallelism, PipeDream-Flush, interleaved
// virtual stages — runs the same worker loop over the program CompileSchedule
// (src/schedule/program.h) emits for the worker: each forward/backward waits for exactly
// the message it names, Step applies the accumulated gradients, and Flush is the pipeline
// barrier. The event simulator executes the same programs, so this is its real-numerics
// counterpart: identical minibatch streams can be trained under 1F1B + weight stashing,
// naive pipelining, vertical sync, GPipe, flush, or BSP data parallelism (a single
// replicated stage), making statistical-efficiency comparisons (paper §5.2, Figures 11/13)
// apples-to-apples.
//
// Failure handling (paper §4): when recovery is enabled, every worker emits heartbeats, a
// watchdog classifies silent workers as dead (and a progress stall as a wedged pipeline),
// and TrainEpoch runs a detection → quiesce → restore → resume state machine: in-flight
// minibatches are discarded, every stage reloads from the newest complete checkpoint epoch,
// the dead worker is respawned (or, for a replicated stage, ejected from the gradient
// all-reduce ring with the 1F1B-RR assignment re-balanced over the survivors), and training
// replays forward from the restored epoch boundary under freshly compiled programs. Weight
// stashing makes the replay semantically transparent; with a stateless optimizer it is
// bitwise identical to an uninterrupted run restored from the same checkpoint.
#ifndef SRC_RUNTIME_PIPELINE_TRAINER_H_
#define SRC_RUNTIME_PIPELINE_TRAINER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/data/loader.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/graph/sequential.h"
#include "src/obs/bubble.h"
#include "src/obs/straggler.h"
#include "src/optim/optimizer.h"
#include "src/planner/plan.h"
#include "src/runtime/allreduce.h"
#include "src/runtime/fault.h"
#include "src/runtime/mailbox.h"
#include "src/runtime/transport.h"
#include "src/runtime/weight_store.h"
#include "src/schedule/program.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {

class CheckpointManager;
namespace obs {
class HealthServer;
}

struct PipelineTrainerOptions {
  // Which entry of the schedule zoo (docs/SCHEDULES.md) to execute. The PIPEDREAM_SCHEDULE
  // env variable (1f1b|gpipe|model_parallel|flush|interleaved) takes precedence.
  ScheduleKind schedule = ScheduleKind::kOneFOneB;
  // Global weight-mode override. Unset (the default), every stage uses the mode recorded in
  // its PipelinePlan StageAssignment (kStashing unless the planner chose otherwise — the
  // per-stage knob that lets a memory-squeezed stage run 2BW while its neighbours stash).
  // Set, it forces one mode everywhere, as does the PIPEDREAM_WEIGHT_MODE env variable
  // (naive|stashing|vertical_sync|double_buffered|2bw), which takes precedence over both.
  std::optional<WeightMode> weight_mode;
  int gpipe_microbatches = 4;  // round size per flush (kGPipe / kPipeDreamFlush)
  // Virtual chunk-stages per physical worker for ScheduleKind::kInterleaved: the (straight)
  // plan's num_stages must be divisible by this, chunk-stage s runs on physical worker
  // s mod (num_stages / interleave_chunks), and each worker executes its chunks' ops in the
  // compiled order (src/schedule/program.h). The PIPEDREAM_CHUNKS env variable takes
  // precedence. Ignored by other schedules.
  int interleave_chunks = 1;
  // Activation recomputation (§3.3 / Chen et al.): stash only each minibatch's stage *input*
  // and re-run the forward pass (under the stashed weights) just before the backward,
  // trading compute for activation memory. Identical gradients for deterministic layers;
  // incompatible with Dropout (whose mask would be redrawn). `true` forces recomputation on
  // every stage; `false` defers to the planner's per-stage StageAssignment::recompute flags
  // (set by ChooseRecompute when a stage busts the device budget). The PIPEDREAM_RECOMPUTE
  // env variable (0|1|on|off|true|false) overrides both, globally.
  bool recompute_activations = false;
  // Gradient accumulation (§3.3's "gradient aggregation"): apply the optimizer every
  // `accumulation_steps` minibatches with the summed gradients scaled by 1/steps, reducing
  // update frequency (and replica sync frequency) without changing the data stream.
  // kDoubleBuffered requires this to cover each 2BW stage's in-flight depth (checked at
  // construction) so two weight buffers always suffice.
  int accumulation_steps = 1;
  // Stage-to-stage message transport. Unset = in-proc mailboxes; the PIPEDREAM_TRANSPORT
  // env variable (inproc|socket) takes precedence over both, mirroring the weight-mode
  // override discipline.
  std::optional<TransportKind> transport;
  // --- elastic re-planning hooks (see src/runtime/elastic.h) ---
  // First epoch this trainer trains. A trainer rebuilt under a new plan after a re-plan
  // resumes at the epoch the old trainer stopped at, keeping the global epoch grid (and the
  // deterministic minibatch stream) intact instead of restarting at 0.
  int64_t start_epoch = 0;
  // Epoch length override in minibatches (0 = derive from the dataset and plan). Re-planning
  // changes the plan's natural synchronization round, so the elastic layer pins one global
  // epoch length divisible by every candidate plan's round; it must be a multiple of this
  // plan's round and at least the pipeline depth.
  int64_t epoch_length = 0;
  // Plan generation stamped into checkpoint manifests; the elastic layer bumps it on every
  // re-plan so checkpoints record which plan wrote them.
  int64_t plan_generation = 0;
};

// Tuning for failure detection and recovery. Defaults suit unit-test-sized models; real
// deployments would scale the timeouts with per-minibatch compute time.
struct RecoveryOptions {
  int heartbeat_timeout_ms = 2000;  // silent worker -> declared dead
  int progress_timeout_ms = 4000;   // no completed work anywhere -> wedged pipeline
  int worker_tick_ms = 20;          // mailbox-wait granularity (heartbeat cadence)
  int watchdog_poll_ms = 5;
  int max_recoveries = 8;           // recoveries per TrainEpoch before giving up
  bool allow_degraded = true;       // eject dead replicas of replicated stages
  bool auto_checkpoint = true;      // SaveCheckpoint after every successful epoch
  // Re-admission of ejected replicas: a replica ejected into degraded mode rejoins its
  // stage's rotation once this many consecutive epochs complete with no failure anywhere
  // (the epoch-grid analog of a heartbeat probation window — the respawned worker must sit
  // out N clean epochs before it is trusted with minibatches again). 0 disables rejoin
  // (the pre-elastic behavior). The PIPEDREAM_REJOIN_PROBATION env variable overrides.
  int rejoin_probation_epochs = 0;
};

// One detected failure and what recovery did about it.
struct FailureRecord {
  int64_t epoch = 0;        // epoch being trained when the failure was detected
  int stage = -1;           // -1 when no specific worker was implicated (e.g. lost message)
  int replica = -1;
  std::string reason;
  bool degraded = false;    // true when the replica was ejected instead of respawned
  bool worker_dead = false;  // the implicated worker itself died (vs a lost/corrupt message)
  int64_t resumed_epoch = -1;  // checkpoint epoch recovery restored from (-1 = initial)
};

struct EpochStats {
  double mean_loss = 0.0;
  int64_t minibatches = 0;
  double wall_seconds = 0.0;
  int recoveries = 0;           // recovery cycles TrainEpoch performed for this epoch
  int failures_detected = 0;    // failures observed (>= recoveries when several coincide)
};

class PipelineTrainer {
 public:
  // `model` is the full network; each stage replica receives a deep copy of its layer slice
  // (replicas therefore start from identical weights). `optimizer_prototype` is cloned per
  // replica. The dataset and loss must outlive the trainer.
  PipelineTrainer(const Sequential& model, const PipelinePlan& plan, const Loss* loss,
                  const Optimizer& optimizer_prototype, const Dataset* dataset,
                  int64_t batch_size, uint64_t seed, PipelineTrainerOptions options = {});
  ~PipelineTrainer();

  PipelineTrainer(const PipelineTrainer&) = delete;
  PipelineTrainer& operator=(const PipelineTrainer&) = delete;

  // Arms crash recovery: on a detected failure TrainEpoch quiesces, restores from
  // `manager`'s newest complete checkpoint epoch (or the initial weights when none exists),
  // and resumes. `manager` may be null only for tests that want detection without restore;
  // it must outlive the trainer.
  void EnableRecovery(CheckpointManager* manager, RecoveryOptions options = {});

  // Attaches a deterministic fault injector consulted by every worker and send. Pass null
  // to detach. The injector must outlive the trainer.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // Trains one epoch (batches_per_epoch minibatches through the pipeline) and returns the
  // mean training loss. Threads are spawned per call; weights persist across epochs. With
  // recovery enabled this call survives injected/real failures: it detects, restores, and
  // replays until the epoch completes (or max_recoveries is exhausted).
  EpochStats TrainEpoch();

  int64_t batches_per_epoch() const;
  // Epoch length in minibatches: batches_per_epoch (or the epoch_length option) truncated
  // to a whole number of every synchronization round — replica all-reduce rounds, flush
  // rounds, and accumulation boundaries. Constant across the trainer's lifetime (epoch
  // boundaries must stay aligned across recoveries).
  int64_t epoch_length() const;
  int64_t epochs_completed() const { return epochs_completed_; }

  // Every failure detected over the trainer's lifetime, in detection order.
  const std::vector<FailureRecord>& failures() const { return failures_; }
  // Replicas of `stage` still in the round-robin rotation (shrinks on degraded recovery).
  int ActiveReplicas(int stage) const;

  // Deep copy of the full model with the current weights (replica 0 of each stage), for
  // evaluation or checkpointing.
  std::unique_ptr<Sequential> AssembleModel() const;

  // Mean classification accuracy of the assembled model over `eval`.
  double EvaluateAccuracy(const Dataset& eval, int64_t eval_batch) const;
  // Mean loss of the assembled model over `eval` (e.g. for perplexity).
  double EvaluateLoss(const Dataset& eval, int64_t eval_batch) const;

  // Observed update staleness (versions between gradient computation and application) for a
  // stage's replica 0 — validates the §3.3 staleness formulas.
  const RunningStat& StageStaleness(int stage) const;
  // Peak bytes of stashed weight copies observed on a stage's replica 0 (logical, i.e.
  // what naive full clones would occupy).
  int64_t StagePeakStashBytes(int stage) const;
  // Same peak, counting only bytes the stashes actually materialized under copy-on-write
  // (blocks no longer shared with the live parameters; see WeightStore).
  int64_t StagePeakMaterializedStashBytes(int stage) const;
  // Peak bytes of stashed activations (layer contexts + recompute inputs) on replica 0.
  int64_t StagePeakActivationBytes(int stage) const;

  const PipelinePlan& plan() const { return plan_; }

  // Per-stage bubble-time attribution (starved / backpressured / weight-sync / recovery)
  // aggregated over the current epoch window; always on. See obs/bubble.h.
  const obs::BubbleAccountant& bubbles() const { return *bubbles_; }
  // Online per-stage straggler scores (smoothed positive z of op times); the elastic layer
  // polls this as a proactive re-plan trigger. See obs/straggler.h.
  const obs::StragglerDetector& straggler() const { return *straggler_; }

  // The weight mode `stage` actually runs: the PIPEDREAM_WEIGHT_MODE / options override
  // when present, otherwise the plan's per-stage assignment (flush-family schedules force
  // kNaive everywhere — flushes make versioning unnecessary).
  WeightMode StageWeightMode(int stage) const;

  // Whether `stage` actually recomputes activations: the PIPEDREAM_RECOMPUTE override when
  // present, otherwise options.recompute_activations OR'd with the plan's per-stage flag.
  bool StageRecompute(int stage) const;

  // Per-stage checkpointing (§4): each stage's replica-0 parameters are written for the
  // given epoch; LoadCheckpoint restores every stage (and broadcasts to replicas).
  Status SaveCheckpoint(class CheckpointManager* manager, int64_t epoch) const;
  Status LoadCheckpoint(const class CheckpointManager& manager, int64_t epoch);

 private:
  struct StageRuntime;  // one per stage replica; defined in the .cc

  StageRuntime* RuntimeFor(int stage, int64_t minibatch) const;
  StageRuntime* ActiveRuntime(int stage) const;  // replica 0 of the active rotation

  // Runs the workers (and watchdog) over [begin, end). Returns false if the attempt was
  // aborted by a failure.
  bool RunRange(int64_t begin, int64_t end, EpochStats* stats);

  // Executes one physical worker's compiled program strictly in order over the stage
  // runtimes it hosts. `*current` tracks the runtime of the instruction being executed so a
  // thrown failure is attributed to the right stage.
  void RunWorker(const WorkerProgram& program, const std::vector<StageRuntime*>& owned,
                 StageRuntime** current);

  // Checksums + injects + routes one boundary message (called from worker threads).
  void Send(StageRuntime* from, int dest_stage, PipeMessage message);

  // Records a failure, flips the abort flag, and wakes every blocked worker. `rt` is null
  // when no specific worker is implicated. Thread-safe.
  void NoteFailure(StageRuntime* rt, const std::string& reason);

  // Post-quiesce recovery: eject or revive dead replicas, restore weights from the newest
  // complete checkpoint (or initial weights), reset weight stores and optimizer state.
  // Returns the epoch to replay from.
  int64_t HandleFailureAndRestore();

  // Re-admits ejected replicas whose probation window has elapsed (called at the top of
  // TrainEpoch, i.e. at an update boundary where surviving replicas hold bitwise-identical
  // weights a rejoiner can copy). Restores the stage's original replica rotation order.
  void MaybeRejoinEjected();

  void RestoreInitialWeights();

  PipelinePlan plan_;
  std::unique_ptr<Sequential> template_model_;  // pristine structure for AssembleModel
  const Loss* loss_;
  const Dataset* dataset_;
  int64_t batch_size_;
  uint64_t seed_;
  PipelineTrainerOptions options_;
  int num_model_layers_;
  std::unique_ptr<Optimizer> optimizer_prototype_;  // fresh-state source for recovery

  std::unique_ptr<obs::BubbleAccountant> bubbles_;     // per-stage stall attribution
  std::unique_ptr<obs::StragglerDetector> straggler_;  // per-stage slow-drift scores
  obs::HealthServer* health_ = nullptr;  // process-wide endpoint (null unless env-armed)

  std::unique_ptr<MessageTransport> transport_;  // owns every stage inbox; outlives runtimes_
  std::vector<std::unique_ptr<StageRuntime>> runtimes_;           // flattened, owns all
  std::vector<std::vector<StageRuntime*>> by_stage_;              // [stage][replica], fixed
  std::vector<std::vector<StageRuntime*>> active_by_stage_;       // shrinks on ejection
  std::vector<std::unique_ptr<GradientAllReducer>> stage_reducers_;
  std::unique_ptr<FlushBarrier> flush_barrier_;  // kFlush instructions; one per attempt
  std::optional<bool> recompute_override_;  // PIPEDREAM_RECOMPUTE, when set
  int64_t epochs_completed_ = 0;
  int64_t next_global_minibatch_ = 0;

  // --- failure handling
  FaultInjector* injector_ = nullptr;
  CheckpointManager* manager_ = nullptr;
  RecoveryOptions recovery_;
  bool recovery_enabled_ = false;
  std::atomic<bool> epoch_abort_{false};
  std::atomic<int64_t> failure_noted_ns_{0};  // recovery-latency clock (first failure of a burst)
  std::mutex failure_mutex_;
  std::vector<FailureRecord> failures_;
  size_t resolved_failures_ = 0;  // records before this index have resumed_epoch filled in

  // --- rejoin probation (ejected replicas awaiting re-admission)
  struct EjectedReplica {
    StageRuntime* rt = nullptr;
    int64_t ejected_epoch = 0;
  };
  std::vector<EjectedReplica> ejected_replicas_;
  int64_t last_failure_epoch_ = -1;  // any failure resets every pending probation clock
};

}  // namespace pipedream

#endif  // SRC_RUNTIME_PIPELINE_TRAINER_H_
