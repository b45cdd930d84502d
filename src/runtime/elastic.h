// Elastic re-planning: self-healing pipelines over heterogeneous workers.
//
// PR 2's fault path detects a dead worker and keeps the pipeline alive, but a lost replica
// leaves the plan degraded forever and the partitioner keeps assuming uniform devices. This
// layer closes the loop the paper's own §3.1 profiler→partitioner machinery suggests: when
// cluster membership changes (a worker dies, a worker joins, a dead worker comes back), the
// ElasticTrainer re-runs the partitioner over the *live* WorkerSpec set — per-worker speed
// factors included — and migrates training onto the new plan:
//
//   quiesce          TrainEpoch returns; every in-flight minibatch is retired, every stage
//                    sits at an update boundary on the global epoch grid.
//   plan-tagged ckpt the outgoing plan writes its stage files plus a PlanManifest (stage
//                    count, layer ranges, generation, CRC) for the boundary epoch.
//   re-partition     PartitionHeterogeneous over the live workers' speeds/memory.
//   rebuild          a fresh PipelineTrainer under the new plan: new stage slices,
//                    mailboxes/transport endpoints, all-reduce rings, weight stores.
//   layer-range      weights restore by LAYER RANGE via the manifest — stage boundaries
//   restore          moved, so stage->stage restore would be wrong.
//   resume           start_epoch/epoch_length pin the new trainer to the same global epoch
//                    grid; the post-resume loss stream is bitwise what a fresh trainer
//                    launched from the migrated checkpoint would produce.
//
// The simulator mirrors the same flow (SimFault replan/join events) so policy code can
// price re-plan-vs-degraded without running threads; bench_elastic measures both. Both run
// the 1F1B schedule only and reject every other schedule at construction.
#ifndef SRC_RUNTIME_ELASTIC_H_
#define SRC_RUNTIME_ELASTIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/planner/partitioner.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/pipeline_trainer.h"

namespace pipedream {

struct ElasticOptions {
  // Options forwarded to every inner PipelineTrainer generation. start_epoch, epoch_length,
  // and plan_generation are managed by the elastic layer and must be left at their defaults.
  PipelineTrainerOptions trainer;
  RecoveryOptions recovery;
  PartitionerOptions partitioner;
  // Interconnect bandwidth fed to the partitioner and predictor (flat topology).
  double bandwidth_bytes_per_sec = 1e9;
  // Global epoch length in minibatches, constant across plan generations. 0 = auto: the
  // dataset's batches-per-epoch truncated to a multiple of lcm(1..cluster_size) *
  // accumulation_steps, which divides every plan's synchronization round for any live set.
  int64_t epoch_length = 0;
  // Re-plan when a worker is lost (vs staying degraded forever, the pre-elastic behavior).
  bool replan_on_failure = true;
  // Proactive straggler-triggered re-planning: when > 0, a stage whose smoothed straggler
  // score (obs/straggler.h) reaches this threshold at an epoch boundary schedules a
  // re-plan, first scaling the straggling workers' speed factors down by the observed
  // drift so the re-partition actually moves layers off them. 0 disables.
  double straggler_replan_threshold = 0.0;
};

class ElasticTrainer {
 public:
  // `cluster` describes every worker that may ever participate (non-empty); ids are
  // indices into it. The initial plan is the heterogeneous partition over the full
  // cluster. `manager` stores the plan-tagged checkpoints migration depends on and must be
  // non-null and outlive the trainer.
  ElasticTrainer(const Sequential& model, const ModelProfile& profile, const Loss* loss,
                 const Optimizer& optimizer_prototype, const Dataset* dataset,
                 int64_t batch_size, uint64_t seed, std::vector<WorkerSpec> cluster,
                 CheckpointManager* manager, ElasticOptions options = {});
  ~ElasticTrainer();

  ElasticTrainer(const ElasticTrainer&) = delete;
  ElasticTrainer& operator=(const ElasticTrainer&) = delete;

  // Trains one epoch on the global epoch grid. Applies any pending membership change
  // (death detected last epoch, queued join/revival) by re-planning FIRST, so the epoch
  // runs entirely under one plan. Failures inside the epoch are handled by the inner
  // trainer's recovery machinery; permanently lost workers trigger a re-plan at the next
  // boundary.
  EpochStats TrainEpoch();

  // Queues a brand-new worker; it is admitted (with a re-plan) at the next epoch boundary.
  // Returns the new worker's id.
  int AddWorker(WorkerSpec spec);
  // Marks a previously lost worker live again; re-admitted at the next epoch boundary.
  void ReviveWorker(int worker_id);

  void SetFaultInjector(FaultInjector* injector);

  const PipelinePlan& plan() const;
  PipelineTrainer* trainer() { return trainer_.get(); }
  int64_t plan_generation() const { return generation_; }
  int64_t epochs_completed() const;
  int64_t epoch_length() const { return epoch_length_; }
  int replans() const { return replans_; }
  double last_replan_seconds() const { return last_replan_seconds_; }
  int live_workers() const;
  bool worker_alive(int worker_id) const;
  const std::vector<WorkerSpec>& cluster() const { return cluster_; }

  std::unique_ptr<Sequential> AssembleModel() const;

 private:
  // Re-partitions over the live set and rebuilds the inner trainer at `boundary_epoch`
  // (weights migrated through the newest plan-tagged checkpoint).
  void Replan(int64_t boundary_epoch);
  // Builds a fresh PipelineTrainer generation under plan_ starting at `start_epoch`.
  void BuildTrainer(int64_t start_epoch);
  // Harvests new failure records from the inner trainer; ejected workers become dead
  // cluster members and schedule a re-plan.
  void ScanFailures();
  PipelinePlan PlanOverLive() const;

  std::unique_ptr<Sequential> initial_model_;  // pristine weights for generation rebuilds
  ModelProfile profile_;
  const Loss* loss_;
  std::unique_ptr<Optimizer> optimizer_prototype_;
  const Dataset* dataset_;
  int64_t batch_size_;
  uint64_t seed_;
  CheckpointManager* manager_;
  ElasticOptions options_;
  FaultInjector* injector_ = nullptr;

  std::vector<WorkerSpec> cluster_;
  std::vector<bool> alive_;
  bool pending_replan_ = false;

  PipelinePlan plan_;
  std::unique_ptr<PipelineTrainer> trainer_;
  int64_t epoch_length_ = 0;
  int64_t generation_ = 0;
  int replans_ = 0;
  double last_replan_seconds_ = 0.0;
  size_t scanned_failures_ = 0;
  // Per-generation throughput cells backing the elastic/gen<g>/minibatches_per_sec callback
  // gauges; shared_ptr because the metrics registry outlives this trainer.
  std::map<int64_t, std::shared_ptr<double>> gen_throughput_;
};

}  // namespace pipedream

#endif  // SRC_RUNTIME_ELASTIC_H_
