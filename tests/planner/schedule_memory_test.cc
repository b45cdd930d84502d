// Predictor-vs-simulator peak-memory agreement across the schedule zoo: both sides price
// memory through src/planner/memory_model.h, so for every (schedule, weight-mode, recompute)
// cell the analytic per-worker peak must equal the event simulator's executed peak exactly —
// not approximately. A drift here means one side silently forked the memory model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/planner/memory_model.h"
#include "src/planner/plan.h"
#include "src/planner/predictor.h"
#include "src/profile/layer_profile.h"
#include "src/schedule/program.h"
#include "src/sim/topology.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {
namespace {

// A deterministic synthetic profile with deliberately uneven layers so stash depths and
// boundary sizes differ per stage.
ModelProfile SyntheticProfile(int layers) {
  ModelProfile profile;
  profile.model_name = "synthetic";
  profile.minibatch_size = 32;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = 0.002 + 0.001 * (i % 3);
    layer.bwd_seconds = 2.0 * layer.fwd_seconds;
    layer.activation_bytes = 40'000 + 25'000 * ((i * 7) % 5);
    layer.param_bytes = 80'000 + 60'000 * ((i * 5) % 4);
    profile.layers.push_back(layer);
  }
  return profile;
}

PipelinePlan WithWeightMode(const PipelinePlan& plan, WeightMode mode) {
  std::vector<StageAssignment> stages = plan.stages();
  for (StageAssignment& stage : stages) {
    stage.weight_mode = mode;
  }
  return PipelinePlan(std::move(stages));
}

int64_t MaxSimWorkerPeak(const SimResult& result) {
  int64_t peak = 0;
  for (const int64_t bytes : result.worker_peak_memory) {
    peak = std::max(peak, bytes);
  }
  return peak;
}

TEST(InFlightDepthTest, MatchesScheduleSemantics) {
  // Straight 4-stage pipeline (noam = 4): the 1F1B ramp is S - s.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(InFlightDepth(4, 4, s, ScheduleKind::kOneFOneB, 4), 4 - s);
    EXPECT_EQ(InFlightDepth(4, 4, s, ScheduleKind::kInterleaved, 4), 4 - s);
    EXPECT_EQ(InFlightDepth(4, 4, s, ScheduleKind::kGPipe, 3), 3);  // all m stashed
    EXPECT_EQ(InFlightDepth(4, 4, s, ScheduleKind::kModelParallel, 3), 1);
  }
  // PipeDream-Flush: min(ramp, m) — the round size caps the early stages, the 1F1B
  // ordering caps the late ones.
  EXPECT_EQ(InFlightDepth(8, 8, 0, ScheduleKind::kPipeDreamFlush, 4), 4);
  EXPECT_EQ(InFlightDepth(8, 8, 5, ScheduleKind::kPipeDreamFlush, 4), 3);
  EXPECT_EQ(InFlightDepth(8, 8, 7, ScheduleKind::kPipeDreamFlush, 4), 1);
}

TEST(InFlightDepthTest, CompiledProgramsReplayToTheClosedForm) {
  // Replaying every compiled program and counting forwards minus backwards per stage gives
  // its peak in-flight depth; the closed form the predictor prices must match it for every
  // straight pipeline, round size, and chunk count.
  const ScheduleKind kinds[] = {ScheduleKind::kOneFOneB, ScheduleKind::kGPipe,
                                ScheduleKind::kModelParallel, ScheduleKind::kPipeDreamFlush,
                                ScheduleKind::kInterleaved};
  int checked = 0;
  for (int stages = 1; stages <= 8; ++stages) {
    for (int m = 1; m <= 6; ++m) {
      for (const ScheduleKind kind : kinds) {
        for (const int chunks : {1, 2, 4}) {
          if (chunks > 1 && (kind != ScheduleKind::kInterleaved || stages % chunks != 0)) {
            continue;
          }
          ProgramSpec spec;
          spec.kind = kind;
          spec.round_size = m;
          spec.chunks = chunks;
          const int64_t minibatches = 3 * std::max(stages, m);
          std::vector<int> live(static_cast<size_t>(stages), 0);
          std::vector<int> peak(static_cast<size_t>(stages), 0);
          for (const WorkerProgram& program :
               CompileSchedule(spec, std::vector<int>(static_cast<size_t>(stages), 1), 0,
                               minibatches)) {
            for (const Instr& instr : program.instrs) {
              int& depth = live[static_cast<size_t>(instr.stage)];
              if (instr.op == OpCode::kFwd) {
                ++depth;
              } else if (instr.op == OpCode::kBwd) {
                --depth;
              }
              peak[static_cast<size_t>(instr.stage)] =
                  std::max(peak[static_cast<size_t>(instr.stage)], depth);
            }
          }
          for (int s = 0; s < stages; ++s) {
            EXPECT_EQ(peak[static_cast<size_t>(s)], InFlightDepth(stages, stages, s, kind, m))
                << ScheduleKindName(kind) << " S=" << stages << " m=" << m
                << " chunks=" << chunks << " stage " << s;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 900);
}

TEST(ScheduleMemoryTest, PredictorMatchesSimulatorAcrossZoo) {
  const ModelProfile profile = SyntheticProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});  // 4 uneven stages
  const auto topology = HardwareTopology::Flat(8, 1e9);

  const ScheduleKind schedules[] = {ScheduleKind::kOneFOneB, ScheduleKind::kGPipe,
                                    ScheduleKind::kModelParallel,
                                    ScheduleKind::kPipeDreamFlush};
  const WeightMode modes[] = {WeightMode::kNaive, WeightMode::kStashing,
                              WeightMode::kDoubleBuffered};
  for (const ScheduleKind schedule : schedules) {
    for (const WeightMode mode : modes) {
      for (const bool recompute : {false, true}) {
        // The runtime rejects kNaive + recompute under 1F1B (the replayed forward would see
        // updated weights); skip the cell the way the frontier enumerator does.
        if (schedule == ScheduleKind::kOneFOneB && mode == WeightMode::kNaive && recompute) {
          continue;
        }
        ScheduleSpec spec;
        spec.kind = schedule;
        spec.flush_microbatches = 4;
        spec.recompute = recompute;
        const PlanPrediction prediction =
            PredictPlan(profile, WithWeightMode(plan, mode), topology, spec);

        SimOptions sim_options;
        sim_options.schedule = schedule;
        sim_options.num_minibatches = 64;
        sim_options.gpipe_microbatches = 4;
        sim_options.recompute = recompute;
        sim_options.weight_mode = mode;
        const SimResult sim =
            SimulatePipeline(profile, WithWeightMode(plan, mode), topology, sim_options);

        EXPECT_EQ(prediction.max_worker_memory_bytes, MaxSimWorkerPeak(sim))
            << "schedule=" << ScheduleKindName(schedule) << " mode=" << WeightModeName(mode)
            << " recompute=" << recompute;
      }
    }
  }
}

TEST(ScheduleMemoryTest, PredictorMatchesSimulatorInterleaved) {
  const ModelProfile profile = SyntheticProfile(8);
  const auto plan = MakeStraightPlan(8, {1, 2, 3, 4, 5, 6, 7});  // 8 chunk-stages
  const auto topology = HardwareTopology::Flat(8, 1e9);
  for (const int chunks : {1, 2, 4}) {
    for (const bool recompute : {false, true}) {
      ScheduleSpec spec;
      spec.kind = ScheduleKind::kInterleaved;
      spec.interleave_chunks = chunks;
      spec.recompute = recompute;
      const PlanPrediction prediction = PredictPlan(profile, plan, topology, spec);

      SimOptions sim_options;
      sim_options.schedule = ScheduleKind::kInterleaved;
      sim_options.interleave_chunks = chunks;
      sim_options.num_minibatches = 64;
      sim_options.recompute = recompute;
      const SimResult sim = SimulatePipeline(profile, plan, topology, sim_options);

      EXPECT_EQ(prediction.max_worker_memory_bytes, MaxSimWorkerPeak(sim))
          << "chunks=" << chunks << " recompute=" << recompute;
    }
  }
}

TEST(ScheduleMemoryTest, StagePredictionsMatchMemoryModel) {
  // The per-stage peaks reported by the predictor are exactly StagePeakMemoryBytes at the
  // schedule's InFlightDepth — no hidden fudge factors.
  const ModelProfile profile = SyntheticProfile(8);
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  const auto topology = HardwareTopology::Flat(8, 1e9);
  ScheduleSpec spec;
  spec.kind = ScheduleKind::kPipeDreamFlush;
  spec.flush_microbatches = 2;
  spec.recompute = true;
  const PlanPrediction prediction = PredictPlan(profile, plan, topology, spec);
  ASSERT_EQ(prediction.stages.size(), 4u);
  for (int s = 0; s < plan.num_stages(); ++s) {
    const auto& stage = plan.stage(s);
    const int in_flight =
        InFlightDepth(plan.Noam(), plan.num_stages(), s, ScheduleKind::kPipeDreamFlush, 2);
    const int64_t boundary_in =
        s > 0 ? profile.BoundaryActivationBytes(plan.stage(s - 1).end_layer - 1) : 0;
    // Flush-family rounds commit no update mid-round, so the cell is priced as kNaive.
    const int64_t expected = StagePeakMemoryBytes(
        profile.ParamBytes(stage.begin_layer, stage.end_layer),
        profile.ActivationBytes(stage.begin_layer, stage.end_layer), boundary_in,
        WeightMode::kNaive, /*recompute=*/true, in_flight);
    EXPECT_EQ(prediction.stages[static_cast<size_t>(s)].peak_memory_bytes, expected) << s;
    EXPECT_EQ(prediction.stages[static_cast<size_t>(s)].in_flight, in_flight) << s;
  }
}

}  // namespace
}  // namespace pipedream
