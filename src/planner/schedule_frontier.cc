#include "src/planner/schedule_frontier.h"

#include <utility>

#include "src/common/check.h"

namespace pipedream {

namespace {

PipelinePlan WithWeightMode(const PipelinePlan& plan, WeightMode mode) {
  std::vector<StageAssignment> stages = plan.stages();
  for (StageAssignment& stage : stages) {
    stage.weight_mode = mode;
  }
  return PipelinePlan(std::move(stages));
}

}  // namespace

std::vector<ScheduleCandidate> EnumerateScheduleFrontier(const ModelProfile& profile,
                                                         const PipelinePlan& plan,
                                                         const HardwareTopology& topology,
                                                         int64_t device_memory_bytes,
                                                         int flush_microbatches) {
  PD_CHECK(plan.IsStraight()) << "the schedule frontier is defined over straight plans";
  PD_CHECK_GE(flush_microbatches, 1);
  const int workers = plan.num_stages();

  std::vector<ScheduleCandidate> frontier;
  auto price = [&](ScheduleKind kind, WeightMode mode, bool recompute,
                   const PipelinePlan& cell_plan, int chunks) {
    ScheduleCandidate candidate;
    candidate.schedule.kind = kind;
    candidate.schedule.flush_microbatches = flush_microbatches;
    candidate.schedule.interleave_chunks = chunks;
    candidate.schedule.recompute = recompute;
    candidate.weight_mode = mode;
    candidate.recompute = recompute;
    candidate.plan = WithWeightMode(cell_plan, mode);
    candidate.prediction = PredictPlan(profile, candidate.plan, topology, candidate.schedule);
    candidate.fits = device_memory_bytes <= 0 ||
                     candidate.prediction.max_worker_memory_bytes <= device_memory_bytes;
    frontier.push_back(std::move(candidate));
  };

  for (const bool recompute : {false, true}) {
    price(ScheduleKind::kOneFOneB, WeightMode::kStashing, recompute, plan, 1);
    price(ScheduleKind::kOneFOneB, WeightMode::kDoubleBuffered, recompute, plan, 1);
    // Flush-family cells run kNaive regardless of the requested mode; price them as such.
    price(ScheduleKind::kPipeDreamFlush, WeightMode::kNaive, recompute, plan, 1);
    price(ScheduleKind::kGPipe, WeightMode::kNaive, recompute, plan, 1);
  }
  if (workers >= 1 && profile.num_layers() >= 2 * workers) {
    // Interleaved cells re-split the model into 2 chunk-stages per worker. The chunk plan
    // has 2 * workers stage ids; PredictPlan folds them back onto the physical workers
    // (stage mod workers) for memory and occupancy.
    const PipelinePlan chunk_plan = MakeBalancedStraightPlan(profile, 2 * workers);
    price(ScheduleKind::kInterleaved, WeightMode::kStashing, false, chunk_plan, 2);
    price(ScheduleKind::kInterleaved, WeightMode::kDoubleBuffered, false, chunk_plan, 2);
  }
  return frontier;
}

const ScheduleCandidate* ChooseSchedule(const std::vector<ScheduleCandidate>& frontier) {
  const ScheduleCandidate* best = nullptr;
  for (const ScheduleCandidate& candidate : frontier) {
    if (!candidate.fits) {
      continue;
    }
    if (best == nullptr || candidate.prediction.throughput_samples_per_sec >
                               best->prediction.throughput_samples_per_sec) {
      best = &candidate;
    }
  }
  return best;
}

}  // namespace pipedream
