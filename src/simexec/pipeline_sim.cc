#include "src/simexec/pipeline_sim.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/common/logging.h"
#include "src/planner/cost_model.h"
#include "src/planner/memory_model.h"
#include "src/planner/partitioner.h"
#include "src/schedule/program.h"
#include "src/sim/engine.h"

namespace pipedream {
namespace {

// Simulator for one run; holds all mutable state so SimulatePipeline stays re-entrant.
class PipelineSimulation {
 public:
  PipelineSimulation(const ModelProfile& profile, const PipelinePlan& plan,
                     const HardwareTopology& topology, const SimOptions& options)
      : profile_(profile), plan_(plan), topology_(topology), options_(options) {
    plan.Validate(profile.num_layers());
    const char* schedule = ScheduleKindName(options.schedule);
    if (!options.worker_speeds.empty()) {
      PD_CHECK_GE(static_cast<int>(options.worker_speeds.size()), topology.num_workers())
          << "worker_speeds must cover every topology worker";
      for (double s : options.worker_speeds) {
        PD_CHECK_GT(s, 0.0) << "worker speeds must be positive";
      }
    }
    if (options.fault.replan || options.fault.join_enabled) {
      PD_CHECK(options.schedule == ScheduleKind::kOneFOneB)
          << "elastic re-planning requires a 1F1B schedule, not " << schedule;
    }
    if (options.fault.enabled && options.fault.degraded && !options.fault.replan) {
      PD_CHECK(options.fault.stage >= 0 && options.fault.stage < plan.num_stages() &&
               plan.stage(options.fault.stage).replicas > 1)
          << "degraded recovery ejects a replica, but stage " << options.fault.stage
          << " is not replicated";
    }
    if (IsFlushFamily(options.schedule)) {
      PD_CHECK_EQ(plan.total_workers(), plan.num_stages())
          << "the " << schedule << " schedule requires an unreplicated pipeline";
    }
    if (options.pipeline_depth_override > 1) {
      // The override clamps stage s to override - s forwards in flight whatever its replica
      // count, which starves a replicated stage of its round-robin share and deadlocks.
      PD_CHECK_EQ(plan.total_workers(), plan.num_stages())
          << "pipeline_depth_override " << options.pipeline_depth_override
          << " above 1 requires an unreplicated plan";
    }
    if (Interleaved()) {
      PD_CHECK_EQ(plan.total_workers(), plan.num_stages())
          << "interleaved simulation requires an unreplicated plan";
      PD_CHECK_GE(options.interleave_chunks, 1);
      PD_CHECK(plan.num_stages() % options.interleave_chunks == 0)
          << "interleaving needs num_stages divisible by interleave_chunks";
      PD_CHECK_EQ(options.pipeline_depth_override, 0)
          << "pipeline_depth_override does not apply to the static interleaved schedule";
    }
    if (options.fault.join_enabled) {
      PD_CHECK(options.fault.join_worker >= 0 &&
               options.fault.join_worker < topology.num_workers())
          << "join_worker must be a topology worker id";
    }
    for (const StageAssignment& stage : plan_.stages()) {
      live_workers_.insert(stage.workers.begin(), stage.workers.end());
    }
    worker_busy_seconds_.assign(static_cast<size_t>(topology.num_workers()), 0.0);
    stage_peak_stash_merged_.assign(static_cast<size_t>(plan.num_stages()), 0);
    BuildStages();
  }

  SimResult Run();

 private:
  struct Worker;

  // One slot of a stage's round-robin rotation.
  struct Replica {
    int stage = 0;
    int replica = 0;
    int worker = 0;          // topology id of the hosting device
    Worker* host = nullptr;  // the program that runs this replica's ops
    // Arrived activations / gradients, indexed by minibatch - first_minibatch_.
    std::vector<bool> arrived_forward;
    std::vector<bool> arrived_backward;
    int stash = 0;
    int peak_stash = 0;
    double fwd_seconds = 0.0;  // stage compute scaled by this worker's 1/speed
    double bwd_seconds = 0.0;
    SimTime busy_time;
    int64_t bwd_done = 0;
    ResourceTimeline egress;  // NIC send port, serializes outgoing transfers
  };

  // One physical device executing its compiled program strictly in order.
  struct Worker {
    WorkerProgram program;
    size_t pc = 0;
    bool busy = false;
    bool failed = false;    // victim of an injected fault; runs nothing until restart
    bool at_flush = false;  // arrived at the current flush barrier
  };

  struct StageInfo {
    double fwd_seconds = 0.0;
    double bwd_seconds = 0.0;
    int64_t weight_bytes = 0;
    int64_t activation_bytes = 0;       // full stash per in-flight minibatch
    int64_t boundary_out_bytes = 0;     // activation shipped to the next stage
    double sync_seconds = 0.0;          // ring all_reduce wall time per sync round
    int bwd_in_round = 0;               // progress toward the next weight-sync collective
    int64_t rounds_synced = 0;          // collectives finished
    ResourceTimeline sync_timeline;
  };

  void BuildStages();
  double SpeedOf(int worker) const {
    if (options_.worker_speeds.empty()) {
      return 1.0;
    }
    PD_CHECK(worker >= 0 && worker < static_cast<int>(options_.worker_speeds.size()));
    return options_.worker_speeds[static_cast<size_t>(worker)];
  }
  // Heterogeneous partition over the current live worker set (the sim-side mirror of
  // ElasticTrainer::PlanOverLive); partitioner ids are remapped back to topology ids.
  PipelinePlan ReplanOverLive() const;
  void JoinRestart();
  Replica* ReplicaFor(int stage, int64_t minibatch);
  void TryDispatch(Worker* w);
  void ArriveAtFlush(Worker* w);
  void OnComplete(Worker* w, Replica* r, WorkType type, int64_t minibatch);
  void SendBoundary(Replica* from, int dest_stage, int64_t minibatch, WorkType type);
  void FireFault(Worker* victim);
  void Restart();
  // Ends the current incarnation: merges its accounting, drops the trace of work that
  // will re-execute from `first_minibatch`, and rebuilds everything from the plan.
  void Reincarnate(int64_t first_minibatch);
  bool Interleaved() const { return options_.schedule == ScheduleKind::kInterleaved; }
  int RoundSize() const {
    return options_.schedule == ScheduleKind::kModelParallel ? 1 : options_.gpipe_microbatches;
  }
  // Resolved weight mode for a stage: global override wins, otherwise the plan's per-stage
  // assignment; flush-family schedules drain between rounds so versioning never applies.
  WeightMode StageMode(int s) const {
    if (IsFlushFamily(options_.schedule)) {
      return WeightMode::kNaive;
    }
    return options_.weight_mode ? *options_.weight_mode : plan_.stage(s).weight_mode;
  }
  // Resolved activation recomputation for a stage: global override wins, otherwise the
  // plan's per-stage flag.
  bool StageRecompute(int s) const {
    return options_.recompute.value_or(plan_.stage(s).recompute);
  }
  // Backwards per replica between weight-sync collectives (gradient accumulation).
  int64_t SyncRoundPerReplica() const {
    return std::max(1, options_.accumulation_steps);
  }

  const ModelProfile& profile_;
  PipelinePlan plan_;  // by value: a degraded restart rebuilds it without the dead replica
  const HardwareTopology& topology_;
  SimOptions options_;

  SimEngine engine_;
  std::vector<StageInfo> stages_;
  std::vector<std::vector<std::unique_ptr<Replica>>> replicas_;  // [stage][replica]
  std::vector<Replica*> all_replicas_;
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t flush_arrivals_ = 0;

  double comm_bytes_ = 0.0;
  int64_t completed_minibatches_ = 0;
  std::vector<SimTime> completion_times_;
  ExecutionTrace trace_;

  // --- failure state. A restart rebuilds stages_/replicas_/workers_ from scratch; events
  // scheduled by the previous incarnation are cancelled by the incarnation counter (they
  // check it before touching any state, so dangling pointers are never dereferenced).
  uint64_t incarnation_ = 0;
  int64_t first_minibatch_ = 0;  // this incarnation runs [first_minibatch_, num_minibatches)
  std::set<int> live_workers_;   // topology ids currently in the plan
  int replans_ = 0;
  double replan_latency_seconds_ = 0.0;
  bool join_fired_ = false;
  bool fault_fired_ = false;
  SimTime fault_time_;
  SimTime recovery_time_;
  int64_t completed_at_failure_ = 0;
  int64_t restart_from_ = 0;
  std::vector<double> worker_busy_seconds_;  // merged from pre-failure incarnations
  std::vector<int> stage_peak_stash_merged_;
};

void PipelineSimulation::BuildStages() {
  const int num_stages = plan_.num_stages();
  const size_t slots = static_cast<size_t>(options_.num_minibatches - first_minibatch_);
  stages_.resize(static_cast<size_t>(num_stages));
  replicas_.resize(static_cast<size_t>(num_stages));
  std::vector<int> rotation;
  for (int s = 0; s < num_stages; ++s) {
    const StageAssignment& assignment = plan_.stage(s);
    rotation.push_back(assignment.replicas);
    StageInfo& info = stages_[static_cast<size_t>(s)];
    for (int l = assignment.begin_layer; l < assignment.end_layer; ++l) {
      info.fwd_seconds += profile_.layers[static_cast<size_t>(l)].fwd_seconds;
      info.bwd_seconds += profile_.layers[static_cast<size_t>(l)].bwd_seconds;
    }
    if (StageRecompute(s)) {
      // Activation recomputation: the backward first re-runs the stage's forward from the
      // stashed boundary input.
      info.bwd_seconds += info.fwd_seconds;
    }
    info.weight_bytes = profile_.ParamBytes(assignment.begin_layer, assignment.end_layer);
    info.activation_bytes =
        profile_.ActivationBytes(assignment.begin_layer, assignment.end_layer);
    info.boundary_out_bytes =
        s + 1 < num_stages ? profile_.BoundaryActivationBytes(assignment.end_layer - 1) : 0;
    if (assignment.replicas > 1) {
      // All_reduce wall time for one sync round, priced as the predictor prices it.
      const TopologyLevel& level =
          topology_.level(BottleneckLevel(topology_, assignment.workers));
      info.sync_seconds =
          SyncWallSeconds(assignment.replicas, info.weight_bytes,
                          level.effective_collective_bandwidth(), level.shared_bus);
    }
  }

  ProgramSpec spec;
  spec.kind = options_.schedule;
  spec.round_size = options_.gpipe_microbatches;
  spec.chunks = options_.interleave_chunks;
  spec.accumulation = options_.accumulation_steps;
  spec.depth_override = options_.pipeline_depth_override;
  for (WorkerProgram& program :
       CompileSchedule(spec, rotation, first_minibatch_, options_.num_minibatches)) {
    auto worker = std::make_unique<Worker>();
    worker->program = std::move(program);
    // An interleaved worker w is the device of stage w, and hosts its later chunks too.
    const int device =
        plan_.stage(worker->program.stages[0]).workers[static_cast<size_t>(worker->program.rank)];
    for (const int s : worker->program.stages) {
      auto replica = std::make_unique<Replica>();
      replica->stage = s;
      replica->replica = worker->program.rank;
      replica->worker = device;
      replica->host = worker.get();
      replica->arrived_forward.assign(slots, false);
      replica->arrived_backward.assign(slots, false);
      replica->fwd_seconds = stages_[static_cast<size_t>(s)].fwd_seconds / SpeedOf(device);
      replica->bwd_seconds = stages_[static_cast<size_t>(s)].bwd_seconds / SpeedOf(device);
      all_replicas_.push_back(replica.get());
      replicas_[static_cast<size_t>(s)].push_back(std::move(replica));
    }
    workers_.push_back(std::move(worker));
  }
}

PipelineSimulation::Replica* PipelineSimulation::ReplicaFor(int stage, int64_t minibatch) {
  const int r = RoundRobinReplica(minibatch, plan_.stage(stage).replicas);
  return replicas_[static_cast<size_t>(stage)][static_cast<size_t>(r)].get();
}

void PipelineSimulation::TryDispatch(Worker* w) {
  const std::vector<Instr>& instrs = w->program.instrs;
  while (!w->busy && !w->failed && w->pc < instrs.size()) {
    const Instr& instr = instrs[w->pc];
    if (instr.op == OpCode::kStep) {
      // The update itself is charged 0; replicated stages pay their weight-sync
      // collective as backwards complete (OnComplete).
      ++w->pc;
      continue;
    }
    if (instr.op == OpCode::kFlush) {
      ArriveAtFlush(w);
      return;
    }
    Replica* r = replicas_[static_cast<size_t>(instr.stage)]
                          [static_cast<size_t>(w->program.rank)].get();
    const size_t slot = static_cast<size_t>(instr.minibatch - first_minibatch_);
    const WorkType type = WorkTypeOf(instr.op);
    if (type == WorkType::kForward) {
      if (r->stage > 0 && !r->arrived_forward[slot]) {
        return;  // the named activation has not arrived yet
      }
    } else {
      if (!r->arrived_backward[slot]) {
        return;
      }
      // BSP gating for replicated stages: at most one weight-sync collective may be
      // outstanding, so a replica cannot run the backward of round k until round k-2's
      // gradients finished synchronizing. This is what throttles sync-bound stages
      // (including vanilla DP, the single-replicated-stage special case) to the all_reduce
      // rate.
      const StageInfo& stage = stages_[static_cast<size_t>(r->stage)];
      if (plan_.stage(r->stage).replicas > 1 &&
          r->bwd_done > (stage.rounds_synced + 1) * SyncRoundPerReplica()) {
        return;
      }
    }
    // Injected device failure: the victim dies on the threshold of this work item. The rest
    // of the pipeline keeps running until it starves, which is exactly the throughput dip.
    if (options_.fault.enabled && !fault_fired_ && r->stage == options_.fault.stage &&
        r->replica == options_.fault.replica &&
        instr.minibatch >= options_.fault.at_minibatch) {
      FireFault(w);
      return;
    }
    ++w->pc;
    w->busy = true;
    double duration = r->bwd_seconds;
    if (type == WorkType::kForward) {
      ++r->stash;
      r->peak_stash = std::max(r->peak_stash, r->stash);
      duration = r->fwd_seconds;
    }
    const SimTime start = engine_.now();
    const SimTime dur = SimTime::FromSeconds(duration);
    if (options_.record_trace) {
      trace_.Add({r->worker, r->stage, type, instr.minibatch, start, start + dur});
    }
    r->busy_time += dur;
    engine_.ScheduleAfter(dur, [this, w, r, type, minibatch = instr.minibatch,
                                inc = incarnation_] {
      if (inc != incarnation_) {
        return;  // event from a pre-restart incarnation; w and r may dangle
      }
      OnComplete(w, r, type, minibatch);
    });
    return;
  }
}

void PipelineSimulation::ArriveAtFlush(Worker* w) {
  if (w->at_flush) {
    return;
  }
  w->at_flush = true;
  if (++flush_arrivals_ < workers_.size()) {
    return;
  }
  // Pipeline flush: every stage applied its aggregated update, so the next round may
  // enter. Update time is negligible relative to compute and is charged 0.
  flush_arrivals_ = 0;
  for (auto& worker : workers_) {
    worker->at_flush = false;
    ++worker->pc;
  }
  for (auto& worker : workers_) {
    TryDispatch(worker.get());
  }
}

void PipelineSimulation::SendBoundary(Replica* from, int dest_stage, int64_t minibatch,
                                      WorkType type) {
  Replica* dest = ReplicaFor(dest_stage, minibatch);
  const int64_t bytes = type == WorkType::kForward
                            ? stages_[static_cast<size_t>(from->stage)].boundary_out_bytes
                            : stages_[static_cast<size_t>(dest_stage)].boundary_out_bytes;
  SimTime arrival = engine_.now();
  if (bytes > 0 && from->worker != dest->worker) {
    // The transport cost model (SimOptions) composes with the topology: the message-framing
    // overhead adds to the physical link latency, and the framed-stream bandwidth cap
    // tightens (never loosens) the link rate.
    double bw = topology_.EffectiveP2pBandwidthBetween(from->worker, dest->worker);
    if (options_.transport_bandwidth_bytes_per_s > 0.0) {
      bw = std::min(bw, options_.transport_bandwidth_bytes_per_s);
    }
    const double lat = topology_.LatencyBetween(from->worker, dest->worker) +
                       options_.transport_latency_s;
    const SimTime duration = SimTime::FromSeconds(static_cast<double>(bytes) / bw);
    const SimTime depart = from->egress.Acquire(engine_.now(), duration);
    arrival = depart + duration + SimTime::FromSeconds(lat);
    comm_bytes_ += static_cast<double>(bytes);
  }
  engine_.ScheduleAt(arrival, [this, dest, minibatch, type, inc = incarnation_] {
    if (inc != incarnation_) {
      return;
    }
    const size_t slot = static_cast<size_t>(minibatch - first_minibatch_);
    (type == WorkType::kForward ? dest->arrived_forward : dest->arrived_backward)[slot] = true;
    TryDispatch(dest->host);
  });
}

void PipelineSimulation::FireFault(Worker* victim) {
  fault_fired_ = true;
  victim->failed = true;
  fault_time_ = engine_.now();
  // Detection (heartbeat timeout) plus checkpoint reload / respawn; the pipeline resumes
  // only after both. A re-planning restart additionally pays the partitioner + migration
  // latency. Surviving stages keep draining whatever work they already hold.
  double stall = options_.fault.detection_seconds + options_.fault.restart_seconds;
  if (options_.fault.replan) {
    stall += options_.fault.replan_seconds;
  }
  const SimTime resume = fault_time_ + SimTime::FromSeconds(stall);
  engine_.ScheduleAt(resume, [this] { Restart(); });
}

void PipelineSimulation::Restart() {
  completed_at_failure_ = completed_minibatches_;
  // Durable progress: roll back to the newest checkpoint boundary (and, under the flush
  // family, to a whole round so the rounds re-align).
  const int64_t granularity = std::max<int64_t>(1, options_.fault.checkpoint_every);
  restart_from_ = completed_at_failure_ / granularity * granularity;
  if (IsFlushFamily(options_.schedule)) {
    restart_from_ = restart_from_ / RoundSize() * RoundSize();
  }
  recovery_time_ = engine_.now();

  if (options_.fault.replan) {
    // Elastic restart: the victim leaves the cluster for good and the partitioner re-plans
    // over the survivors' speeds — layer ranges move, so the new plan may have a different
    // stage count entirely. State migrates through the checkpoint (layer-range restore).
    const StageAssignment& victim_stage = plan_.stage(options_.fault.stage);
    PD_CHECK(options_.fault.replica >= 0 &&
             options_.fault.replica < static_cast<int>(victim_stage.workers.size()));
    live_workers_.erase(victim_stage.workers[static_cast<size_t>(options_.fault.replica)]);
    PD_CHECK(!live_workers_.empty()) << "every worker is dead";
    plan_ = ReplanOverLive();
    ++replans_;
    replan_latency_seconds_ += options_.fault.replan_seconds;
  } else if (options_.fault.degraded) {
    // Eject the dead replica: the stage keeps running on the survivors with the round-robin
    // minibatch assignment rebalanced over the smaller rotation.
    std::vector<StageAssignment> stages = plan_.stages();
    StageAssignment& victim_stage = stages[static_cast<size_t>(options_.fault.stage)];
    victim_stage.workers.erase(victim_stage.workers.begin() + options_.fault.replica);
    --victim_stage.replicas;
    plan_ = PipelinePlan(std::move(stages));
  }
  Reincarnate(restart_from_);
}

PipelinePlan PipelineSimulation::ReplanOverLive() const {
  std::vector<WorkerSpec> specs;
  const std::vector<int> ids(live_workers_.begin(), live_workers_.end());
  for (int w : ids) {
    WorkerSpec spec;
    spec.speed = SpeedOf(w);
    specs.push_back(spec);
  }
  // Flat-interconnect approximation for the partitioner's communication model: the p2p rate
  // between the first live pair (uniform topologies, the common sim configuration).
  double bandwidth = 1e9;
  if (ids.size() >= 2) {
    bandwidth = topology_.EffectiveP2pBandwidthBetween(ids[0], ids[1]);
  }
  const PartitionResult repartition = PartitionHeterogeneous(profile_, specs, bandwidth);
  std::vector<StageAssignment> stages = repartition.plan.stages();
  for (StageAssignment& stage : stages) {
    for (int& id : stage.workers) {
      id = ids[static_cast<size_t>(id)];
    }
    std::sort(stage.workers.begin(), stage.workers.end());
  }
  PipelinePlan plan{std::move(stages)};
  plan.Validate(profile_.num_layers());
  return plan;
}

void PipelineSimulation::JoinRestart() {
  // Quiesce-and-migrate at a checkpoint boundary: completed work survives (the boundary
  // writes a fresh plan-tagged checkpoint), only in-flight minibatches re-execute.
  live_workers_.insert(options_.fault.join_worker);
  plan_ = ReplanOverLive();
  ++replans_;
  replan_latency_seconds_ += options_.fault.replan_seconds;
  Reincarnate(completed_minibatches_);
}

void PipelineSimulation::Reincarnate(int64_t first_minibatch) {
  if (stage_peak_stash_merged_.size() < stages_.size()) {
    stage_peak_stash_merged_.resize(stages_.size(), 0);
  }
  for (Replica* r : all_replicas_) {
    worker_busy_seconds_[static_cast<size_t>(r->worker)] += r->busy_time.ToSeconds();
    stage_peak_stash_merged_[static_cast<size_t>(r->stage)] = std::max(
        stage_peak_stash_merged_[static_cast<size_t>(r->stage)], r->peak_stash);
  }
  // The trace records the execution that stuck: rolled-back work re-runs and is traced
  // again by the new incarnation.
  trace_.EraseIf(
      [first_minibatch](const TraceEvent& e) { return e.minibatch >= first_minibatch; });
  // New incarnation: every event the old one scheduled is now inert.
  ++incarnation_;
  stages_.clear();
  replicas_.clear();
  all_replicas_.clear();
  workers_.clear();
  flush_arrivals_ = 0;
  first_minibatch_ = first_minibatch;
  completed_minibatches_ = first_minibatch;
  BuildStages();
  for (auto& worker : workers_) {
    TryDispatch(worker.get());
  }
}

void PipelineSimulation::OnComplete(Worker* w, Replica* r, WorkType type, int64_t minibatch) {
  w->busy = false;
  StageInfo& stage = stages_[static_cast<size_t>(r->stage)];
  const int num_stages = plan_.num_stages();

  if (type == WorkType::kForward) {
    if (r->stage + 1 < num_stages) {
      SendBoundary(r, r->stage + 1, minibatch, WorkType::kForward);
    } else {
      // Output stage: the loss gradient is local; the backward is immediately ready.
      r->arrived_backward[static_cast<size_t>(minibatch - first_minibatch_)] = true;
    }
  } else {
    --r->stash;
    ++r->bwd_done;
    if (r->stage > 0) {
      SendBoundary(r, r->stage - 1, minibatch, WorkType::kBackward);
    } else {
      ++completed_minibatches_;
      completion_times_.push_back(engine_.now());
      // Elastic join: once enough minibatches completed, the new worker is admitted after
      // one replan_seconds window (the partitioner runs while the old plan keeps working;
      // whatever is in flight when the switch lands re-executes under the new plan).
      if (options_.fault.join_enabled && !join_fired_ &&
          completed_minibatches_ >= options_.fault.join_at_minibatch) {
        join_fired_ = true;
        engine_.ScheduleAfter(SimTime::FromSeconds(options_.fault.replan_seconds),
                              [this, inc = incarnation_] {
                                if (inc == incarnation_) {
                                  JoinRestart();
                                }
                              });
      }
    }
    // Replicated-stage weight synchronization: one collective per round of `replicas`
    // backwards, overlapped with compute (wait-free), serialized on the stage's collective
    // engine.
    const int replicas = plan_.stage(r->stage).replicas;
    if (replicas > 1) {
      // One collective per accumulation round: `replicas * accumulation_steps` backwards
      // contribute to each synchronized update.
      if (++stage.bwd_in_round == replicas * SyncRoundPerReplica()) {
        stage.bwd_in_round = 0;
        const SimTime start = stage.sync_timeline.Acquire(
            engine_.now(), SimTime::FromSeconds(stage.sync_seconds));
        comm_bytes_ += RingAllReduceBytes(replicas, stage.weight_bytes);
        StageInfo* stage_ptr = &stage;
        const int stage_index = r->stage;
        engine_.ScheduleAt(start + SimTime::FromSeconds(stage.sync_seconds),
                           [this, stage_ptr, stage_index, inc = incarnation_] {
                             if (inc != incarnation_) {
                               return;
                             }
                             ++stage_ptr->rounds_synced;
                             for (auto& replica : replicas_[static_cast<size_t>(stage_index)]) {
                               TryDispatch(replica->host);
                             }
                           });
      }
    }
  }
  TryDispatch(w);
}

SimResult PipelineSimulation::Run() {
  for (auto& worker : workers_) {
    TryDispatch(worker.get());
  }
  engine_.Run();
  PD_CHECK_EQ(completed_minibatches_, options_.num_minibatches)
      << "simulation deadlocked: " << completed_minibatches_ << " of "
      << options_.num_minibatches << " minibatches completed";

  SimResult result;
  // Account trailing weight-sync collectives into the makespan.
  SimTime end = engine_.now();
  for (StageInfo& s : stages_) {
    end = std::max(end, s.sync_timeline.next_free());
  }
  result.total_seconds = end.ToSeconds();

  // Steady-state throughput over the back half of the run (skips pipeline fill): the
  // completions in [opens, closes), over closes - opens. Replicas that finish in lockstep
  // tie, and counting at one end only spans whole rounds: the round the window opens on,
  // not the last one, which is partial when the replica count does not divide the run.
  const size_t n = completion_times_.size();
  if (n >= 4) {
    const SimTime opens = completion_times_[n / 2 - 1];
    const SimTime closes = completion_times_[n - 1];
    const double window = (closes - opens).ToSeconds();
    const auto first =
        std::lower_bound(completion_times_.begin(), completion_times_.end(), opens);
    const auto last = std::lower_bound(first, completion_times_.end(), closes);
    const auto completed = static_cast<double>(last - first);
    if (window > 0.0) {
      result.throughput_samples_per_sec =
          completed * static_cast<double>(profile_.minibatch_size) / window;
    }
  }
  if (result.throughput_samples_per_sec == 0.0 && result.total_seconds > 0.0) {
    result.throughput_samples_per_sec =
        static_cast<double>(options_.num_minibatches) *
        static_cast<double>(profile_.minibatch_size) / result.total_seconds;
  }
  result.comm_bytes_total = comm_bytes_;

  const int max_worker = topology_.num_workers();
  result.worker_utilization.assign(static_cast<size_t>(max_worker), 0.0);
  result.worker_peak_memory.assign(static_cast<size_t>(max_worker), 0);
  result.stage_peak_stash.assign(static_cast<size_t>(plan_.num_stages()), 0);
  if (result.total_seconds > 0.0) {
    // Busy time accumulated by pre-restart incarnations (a degraded run's dead worker only
    // appears here).
    for (size_t w = 0; w < worker_busy_seconds_.size(); ++w) {
      result.worker_utilization[w] = worker_busy_seconds_[w] / result.total_seconds;
    }
  }
  for (size_t s = 0;
       s < std::min(stage_peak_stash_merged_.size(), result.stage_peak_stash.size()); ++s) {
    result.stage_peak_stash[s] = stage_peak_stash_merged_[s];
  }
  for (Replica* r : all_replicas_) {
    if (result.total_seconds > 0.0) {
      result.worker_utilization[static_cast<size_t>(r->worker)] +=
          r->busy_time.ToSeconds() / result.total_seconds;
    }
    const StageInfo& stage = stages_[static_cast<size_t>(r->stage)];
    // Peak memory via the shared model (src/planner/memory_model.h), fed the *measured*
    // stash depth: naive keeps current weights + gradient, stashing adds (depth - 1) full
    // versions, 2BW a single shadow buffer; a recomputing stage stashes only boundary
    // inputs and materializes one full activation set during the recomputed backward.
    const int64_t boundary_in =
        r->stage > 0
            ? profile_.BoundaryActivationBytes(plan_.stage(r->stage).begin_layer - 1)
            : 0;
    const int64_t memory = StagePeakMemoryBytes(
        stage.weight_bytes, stage.activation_bytes, boundary_in, StageMode(r->stage),
        StageRecompute(r->stage), std::max(1, r->peak_stash));
    // += rather than =: an interleaved physical worker hosts several chunk-stages and pays
    // for all of them (plans without chunking assign each worker exactly once).
    result.worker_peak_memory[static_cast<size_t>(r->worker)] += memory;
    result.stage_peak_stash[static_cast<size_t>(r->stage)] =
        std::max(result.stage_peak_stash[static_cast<size_t>(r->stage)], r->peak_stash);
  }
  if (fault_fired_) {
    result.fault_seconds = fault_time_.ToSeconds();
    result.recovery_seconds = recovery_time_.ToSeconds();
    result.reexecuted_minibatches = completed_at_failure_ - restart_from_;
    // Steady-state throughput after the pipeline resumed (for degraded runs, the survivors'
    // sustained rate).
    int64_t after = 0;
    for (const SimTime& t : completion_times_) {
      if (t > recovery_time_) {
        ++after;
      }
    }
    const double window = (engine_.now() - recovery_time_).ToSeconds();
    if (after > 0 && window > 0.0) {
      result.post_recovery_throughput_samples_per_sec =
          static_cast<double>(after) * static_cast<double>(profile_.minibatch_size) / window;
    }
  }
  result.replans = replans_;
  result.replan_latency_seconds = replan_latency_seconds_;
  result.final_plan = plan_;
  result.trace = std::move(trace_);
  return result;
}

}  // namespace

SimResult SimulatePipeline(const ModelProfile& profile, const PipelinePlan& plan,
                           const HardwareTopology& topology, const SimOptions& options) {
  PipelineSimulation sim(profile, plan, topology, options);
  return sim.Run();
}

DataParallelResult SimulateDataParallelBsp(const ModelProfile& profile,
                                           const HardwareTopology& topology, int workers) {
  PD_CHECK_GE(workers, 1);
  PD_CHECK_LE(workers, topology.num_workers());
  DataParallelResult result;
  const int n = profile.num_layers();
  double compute = 0.0;
  for (const LayerProfile& l : profile.layers) {
    compute += l.total_seconds();
  }
  result.compute_seconds = compute;
  if (workers == 1) {
    result.iteration_seconds = compute;
    result.throughput_samples_per_sec =
        static_cast<double>(profile.minibatch_size) / compute;
    return result;
  }

  // Per-layer all_reduce cost over the hierarchy, NCCL-style: a reduce phase inside each
  // level (engaging n_k components) per level, each at that level's effective collective
  // bandwidth. Wait-free backprop: layer l's gradient chunk becomes ready when its backward
  // finishes; chunks serialize on the NIC. Forward runs first, then backwards from the last
  // layer down.
  auto allreduce_seconds = [&](int64_t bytes) {
    double total = 0.0;
    for (int k = 1; k <= topology.num_levels(); ++k) {
      const TopologyLevel& level = topology.level(k);
      const int below = topology.WorkersPerComponent(k - 1);
      const int engaged = std::min(level.fanout, (workers + below - 1) / below);
      if (engaged <= 1) {
        continue;
      }
      total += SyncWallSeconds(engaged, bytes, level.effective_collective_bandwidth(),
                               level.shared_bus);
    }
    return total;
  };
  double fwd_total = 0.0;
  for (const LayerProfile& l : profile.layers) {
    fwd_total += l.fwd_seconds;
  }
  double t = fwd_total;
  double comm_free = 0.0;
  for (int l = n - 1; l >= 0; --l) {
    const LayerProfile& layer = profile.layers[static_cast<size_t>(l)];
    t += layer.bwd_seconds;  // backward of layer l completes at time t
    if (layer.param_bytes == 0) {
      continue;
    }
    const double chunk = allreduce_seconds(layer.param_bytes);
    const double start = std::max(t, comm_free);
    comm_free = start + chunk;
  }
  const double iteration = std::max(compute, comm_free);
  result.iteration_seconds = iteration;
  result.stall_seconds = iteration - compute;
  result.comm_overhead_fraction = iteration > 0.0 ? result.stall_seconds / iteration : 0.0;
  result.throughput_samples_per_sec = static_cast<double>(workers) *
                                      static_cast<double>(profile.minibatch_size) / iteration;
  result.comm_bytes_per_sample =
      RingAllReduceBytes(workers, profile.TotalParamBytes()) /
      (static_cast<double>(workers) * static_cast<double>(profile.minibatch_size));
  return result;
}

}  // namespace pipedream
