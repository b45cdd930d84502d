#include "src/runtime/elastic.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/data/loader.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pipedream {
namespace {

int64_t Lcm(int64_t a, int64_t b) { return a / std::gcd(a, b) * b; }

// Least common multiple of every possible per-plan synchronization round over a cluster of
// `max_workers` devices: any stage's replica count lies in [1, max_workers], so an epoch
// length divisible by lcm(1..max_workers) is divisible by ANY plan's round — the property
// that lets checkpoints from different plan generations share one global epoch grid.
int64_t UniversalRound(int max_workers) {
  int64_t round = 1;
  for (int m = 2; m <= max_workers; ++m) {
    round = Lcm(round, m);
  }
  return round;
}

}  // namespace

ElasticTrainer::ElasticTrainer(const Sequential& model, const ModelProfile& profile,
                               const Loss* loss, const Optimizer& optimizer_prototype,
                               const Dataset* dataset, int64_t batch_size, uint64_t seed,
                               std::vector<WorkerSpec> cluster, CheckpointManager* manager,
                               ElasticOptions options)
    : initial_model_(model.Clone()),
      profile_(profile),
      loss_(loss),
      optimizer_prototype_(optimizer_prototype.CloneFresh()),
      dataset_(dataset),
      batch_size_(batch_size),
      seed_(seed),
      manager_(manager),
      options_(std::move(options)),
      cluster_(std::move(cluster)) {
  PD_CHECK(manager_ != nullptr) << "elastic migration requires a CheckpointManager";
  PD_CHECK(loss_ != nullptr && dataset_ != nullptr);
  PD_CHECK_EQ(options_.trainer.start_epoch, 0) << "start_epoch is managed by ElasticTrainer";
  PD_CHECK_EQ(options_.trainer.epoch_length, 0) << "epoch_length is managed by ElasticTrainer";
  PD_CHECK_EQ(options_.trainer.plan_generation, 0)
      << "plan_generation is managed by ElasticTrainer";
  PD_CHECK(!cluster_.empty()) << "no workers: pass a non-empty cluster";
  // Re-planning resumes a new plan on the epoch grid with per-minibatch 1F1B semantics;
  // flush rounds and interleaved chunk layouts do not survive a re-partition.
  PD_CHECK(options_.trainer.schedule == ScheduleKind::kOneFOneB)
      << "elastic re-planning requires a 1F1B schedule, not "
      << ScheduleKindName(options_.trainer.schedule);
  alive_.assign(cluster_.size(), true);

  // Pin the global epoch grid: one epoch length every plan generation can live on.
  if (options_.epoch_length > 0) {
    epoch_length_ = options_.epoch_length;
  } else {
    int64_t round = UniversalRound(static_cast<int>(cluster_.size()));
    if (options_.trainer.accumulation_steps > 1) {
      round = Lcm(round, options_.trainer.accumulation_steps);
    }
    MinibatchLoader probe(dataset_, batch_size_, seed_);
    epoch_length_ = probe.batches_per_epoch() / round * round;
    PD_CHECK_GT(epoch_length_, 0)
        << "dataset too small for one universal synchronization round (" << round
        << " minibatches) per epoch";
  }

  plan_ = PlanOverLive();
  BuildTrainer(/*start_epoch=*/0);
  obs::GetGauge("elastic/plan_generation")->Set(generation_);
  obs::GetGauge("elastic/live_workers")->Set(live_workers());
}

ElasticTrainer::~ElasticTrainer() = default;

PipelinePlan ElasticTrainer::PlanOverLive() const {
  std::vector<WorkerSpec> live_specs;
  std::vector<int> live_ids;
  for (size_t w = 0; w < cluster_.size(); ++w) {
    if (alive_[w]) {
      live_specs.push_back(cluster_[w]);
      live_ids.push_back(static_cast<int>(w));
    }
  }
  PD_CHECK(!live_specs.empty()) << "every worker is dead";
  const PartitionResult result = PartitionHeterogeneous(
      profile_, live_specs, options_.bandwidth_bytes_per_sec, options_.partitioner);
  // The partitioner's ids index the live subset; plans speak global cluster ids.
  std::vector<StageAssignment> stages = result.plan.stages();
  for (StageAssignment& stage : stages) {
    for (int& id : stage.workers) {
      id = live_ids[static_cast<size_t>(id)];
    }
    std::sort(stage.workers.begin(), stage.workers.end());
  }
  PipelinePlan plan{std::move(stages)};
  plan.Validate(profile_.num_layers());
  return plan;
}

void ElasticTrainer::BuildTrainer(int64_t start_epoch) {
  PipelineTrainerOptions topts = options_.trainer;
  topts.start_epoch = start_epoch;
  topts.epoch_length = epoch_length_;
  topts.plan_generation = generation_;
  trainer_ = std::make_unique<PipelineTrainer>(*initial_model_, plan_, loss_,
                                               *optimizer_prototype_, dataset_, batch_size_,
                                               seed_, topts);
  trainer_->EnableRecovery(manager_, options_.recovery);
  if (injector_ != nullptr) {
    trainer_->SetFaultInjector(injector_);
  }
  if (start_epoch > 0) {
    // Migrate state across the plan change: the newest complete plan-tagged checkpoint is
    // the boundary epoch's; LoadCheckpoint remaps its stages onto OUR stages by layer
    // range, so moved stage boundaries restore correctly.
    const int64_t resume = manager_->LatestCompleteEpoch(plan_.num_stages(), start_epoch - 1);
    PD_CHECK_GE(resume, 0) << "no complete checkpoint to migrate from at epoch "
                           << start_epoch - 1;
    PD_CHECK_EQ(resume, start_epoch - 1)
        << "migration checkpoint missing: wanted epoch " << start_epoch - 1 << ", newest is "
        << resume;
    const Status restored = trainer_->LoadCheckpoint(*manager_, resume);
    PD_CHECK(restored.ok()) << "elastic migration failed to restore checkpoint epoch "
                            << resume << ": " << restored.ToString();
  }
}

void ElasticTrainer::Replan(int64_t boundary_epoch) {
  PD_TRACE_SPAN("replan");
  const int64_t t0 = obs::TraceClockNs();
  if (boundary_epoch > 0) {
    // The pipeline is quiesced (between TrainEpoch calls = an update boundary on the epoch
    // grid). Force the outgoing plan's checkpoint + manifest for the last completed epoch so
    // migration never depends on auto_checkpoint having been left on.
    const Status saved = trainer_->SaveCheckpoint(manager_, boundary_epoch - 1);
    PD_CHECK(saved.ok()) << "pre-replan checkpoint failed: " << saved.ToString();
  }
  plan_ = PlanOverLive();
  ++generation_;
  BuildTrainer(boundary_epoch);
  ++replans_;
  last_replan_seconds_ = static_cast<double>(obs::TraceClockNs() - t0) * 1e-9;
  obs::GetHistogram("elastic/replan_seconds")->Observe(last_replan_seconds_);
  obs::GetCounter("elastic/replans")->Increment();
  obs::GetGauge("elastic/plan_generation")->Set(generation_);
  obs::GetGauge("elastic/live_workers")->Set(live_workers());
  PD_LOG(INFO) << "re-planned at epoch " << boundary_epoch << ": generation " << generation_
               << ", " << live_workers() << " live workers, config "
               << plan_.ConfigString(profile_.num_layers()) << " ("
               << StrFormat("%.1f", last_replan_seconds_ * 1e3) << " ms)";
}

void ElasticTrainer::ScanFailures() {
  const std::vector<FailureRecord>& failures = trainer_->failures();
  for (size_t i = scanned_failures_; i < failures.size(); ++i) {
    const FailureRecord& f = failures[i];
    // Only an EJECTED worker is treated as permanently lost: the inner trainer respawns
    // unreplicated-stage workers in place (a transient fault on the same device), but a
    // degraded ejection is exactly the forever-degraded state re-planning exists to heal.
    if (!f.worker_dead || !f.degraded || f.stage < 0) {
      continue;
    }
    const StageAssignment& stage = plan_.stage(f.stage);
    PD_CHECK(f.replica >= 0 && f.replica < static_cast<int>(stage.workers.size()));
    const int worker = stage.workers[static_cast<size_t>(f.replica)];
    if (alive_[static_cast<size_t>(worker)]) {
      alive_[static_cast<size_t>(worker)] = false;
      obs::GetGauge("elastic/live_workers")->Set(live_workers());
      PD_LOG(WARNING) << "worker " << worker << " lost (stage " << f.stage << " replica "
                      << f.replica << "); "
                      << (options_.replan_on_failure ? "re-plan scheduled for the next epoch"
                                                     : "staying degraded");
      if (options_.replan_on_failure) {
        pending_replan_ = true;
      }
    }
  }
  scanned_failures_ = failures.size();
}

EpochStats ElasticTrainer::TrainEpoch() {
  if (pending_replan_) {
    Replan(trainer_->epochs_completed());
    pending_replan_ = false;
  }
  EpochStats stats = trainer_->TrainEpoch();
  ScanFailures();
  // Proactive drift check: a stage scoring past the straggler threshold is healed like a
  // failure, but before it degrades to one. The rebuilt trainer starts a fresh detector,
  // so one drifting stage triggers at most one re-plan per drift episode.
  if (options_.straggler_replan_threshold > 0.0 && !pending_replan_) {
    const obs::StragglerDetector& detector = trainer_->straggler();
    const int worst = detector.WorstStage(options_.straggler_replan_threshold);
    if (worst >= 0) {
      const double score = detector.Score(worst);
      // Fold the observed drift into the straggling workers' speed factors so the
      // re-partition moves layers off them instead of reproducing the old plan.
      for (const int w : plan_.stage(worst).workers) {
        cluster_[static_cast<size_t>(w)].speed /= 1.0 + score;
      }
      obs::GetCounter("elastic/straggler_replans")->Increment();
      PD_LOG(WARNING) << "stage " << worst << " straggling (score "
                      << StrFormat("%.2f", score) << " >= "
                      << StrFormat("%.2f", options_.straggler_replan_threshold)
                      << "); re-plan scheduled for the next epoch";
      pending_replan_ = true;
    }
  }
  if (stats.wall_seconds > 0 && stats.minibatches > 0) {
    // Per-generation throughput: one callback gauge per plan generation, so a dump shows
    // the degraded-vs-replanned recovery the bench quantifies.
    const double mbps = static_cast<double>(stats.minibatches) / stats.wall_seconds;
    auto it = gen_throughput_.find(generation_);
    if (it == gen_throughput_.end()) {
      auto cell = std::make_shared<double>(mbps);
      gen_throughput_.emplace(generation_, cell);
      obs::MetricsRegistry::Get().SetCallback(
          StrFormat("elastic/gen%lld/minibatches_per_sec",
                    static_cast<long long>(generation_)),
          [cell] { return *cell; });
    } else {
      *it->second = mbps;
    }
  }
  return stats;
}

int ElasticTrainer::AddWorker(WorkerSpec spec) {
  PD_CHECK_GT(spec.speed, 0.0);
  const int id = static_cast<int>(cluster_.size());
  // The pinned epoch length must stay divisible by every plan round the larger cluster can
  // produce; size the cluster (or pass an explicit epoch_length) for the eventual maximum.
  int64_t round = UniversalRound(id + 1);
  if (options_.trainer.accumulation_steps > 1) {
    round = Lcm(round, options_.trainer.accumulation_steps);
  }
  PD_CHECK_EQ(epoch_length_ % round, 0)
      << "epoch length " << epoch_length_ << " cannot host " << id + 1
      << " workers; construct with the eventual cluster (dead members) or a compatible "
         "epoch_length";
  cluster_.push_back(spec);
  alive_.push_back(true);
  pending_replan_ = true;
  PD_LOG(INFO) << "worker " << id << " (speed " << StrFormat("%.2f", spec.speed)
               << ") joining at the next epoch boundary";
  return id;
}

void ElasticTrainer::ReviveWorker(int worker_id) {
  PD_CHECK(worker_id >= 0 && worker_id < static_cast<int>(cluster_.size()));
  PD_CHECK(!alive_[static_cast<size_t>(worker_id)])
      << "worker " << worker_id << " is already live";
  alive_[static_cast<size_t>(worker_id)] = true;
  pending_replan_ = true;
  PD_LOG(INFO) << "worker " << worker_id << " revived; rejoining at the next epoch boundary";
}

void ElasticTrainer::SetFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  if (trainer_ != nullptr) {
    trainer_->SetFaultInjector(injector);
  }
}

const PipelinePlan& ElasticTrainer::plan() const { return plan_; }

int64_t ElasticTrainer::epochs_completed() const { return trainer_->epochs_completed(); }

int ElasticTrainer::live_workers() const {
  return static_cast<int>(std::count(alive_.begin(), alive_.end(), true));
}

bool ElasticTrainer::worker_alive(int worker_id) const {
  PD_CHECK(worker_id >= 0 && worker_id < static_cast<int>(cluster_.size()));
  return alive_[static_cast<size_t>(worker_id)];
}

std::unique_ptr<Sequential> ElasticTrainer::AssembleModel() const {
  return trainer_->AssembleModel();
}

}  // namespace pipedream
