// Schedule fuzzing: seeded-random pipeline shapes through every ScheduleKind, with the
// ExecutionTrace validator asserting the §3.2 safety properties on each run — forward /
// backward data dependencies across stages, 1F1B-RR forward/backward replica affinity
// (required for weight stashing), worker exclusivity, and round-robin input routing — and
// every replica's traced op sequence matching its compiled program exactly. The simulator
// and the validator are independent implementations of the schedule semantics, so
// agreement across hundreds of random configurations is strong evidence both are right.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/planner/plan.h"
#include "src/profile/layer_profile.h"
#include "src/schedule/program.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {
namespace {

// A random profile with `layers` layers of varying cost.
ModelProfile RandomProfile(int layers, Rng* rng) {
  ModelProfile profile;
  profile.model_name = "fuzz";
  profile.minibatch_size = 16;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = 0.001 + 0.01 * rng->NextDouble();
    layer.bwd_seconds = 2.0 * layer.fwd_seconds;
    layer.activation_bytes = 1 << (10 + rng->UniformInt(8));
    layer.param_bytes = 1 << (12 + rng->UniformInt(8));
    profile.layers.push_back(layer);
  }
  return profile;
}

// A random multi-stage plan; `allow_replicas` gates 1F1B-RR-style replicated stages
// (GPipe / model parallelism require straight pipelines).
PipelinePlan RandomPlan(int layers, bool allow_replicas, Rng* rng) {
  const int max_stages = std::min(layers, 5);
  const int num_stages = 1 + static_cast<int>(rng->UniformInt(static_cast<uint64_t>(max_stages)));
  // Split `layers` into num_stages positive spans.
  std::vector<int> spans(static_cast<size_t>(num_stages), 1);
  for (int extra = layers - num_stages; extra > 0; --extra) {
    spans[static_cast<size_t>(rng->UniformInt(static_cast<uint64_t>(num_stages)))]++;
  }
  std::vector<std::pair<int, int>> shape;
  for (int s = 0; s < num_stages; ++s) {
    const int replicas =
        allow_replicas ? 1 + static_cast<int>(rng->UniformInt(3)) : 1;  // 1..3
    shape.emplace_back(spans[static_cast<size_t>(s)], replicas);
  }
  return MakePlanFromShape(shape);
}

// Each replica's (type, minibatch) sequence in the trace, keyed by (stage, worker).
using OpSequence = std::vector<std::pair<WorkType, int64_t>>;
std::map<std::pair<int, int>, OpSequence> TracedSequences(const ExecutionTrace& trace) {
  std::vector<TraceEvent> events = trace.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.start < b.start; });
  std::map<std::pair<int, int>, OpSequence> sequences;
  for (const TraceEvent& e : events) {
    sequences[{e.stage, e.worker}].emplace_back(e.type, e.minibatch);
  }
  return sequences;
}

void RunAndValidate(const ModelProfile& profile, const PipelinePlan& plan,
                    const SimOptions& options, const std::string& what) {
  const auto topo = HardwareTopology::Flat(plan.total_workers(), 1e9);
  const SimResult result = SimulatePipeline(profile, plan, topo, options);
  const Status status = result.trace.Validate(plan);
  EXPECT_TRUE(status.ok()) << what << ": " << status.message();
  EXPECT_GT(result.trace.size(), 0u) << what;
  EXPECT_GT(result.throughput_samples_per_sec, 0.0) << what;

  // The simulator runs the compiled programs: every replica's traced order is its program.
  ProgramSpec spec;
  spec.kind = options.schedule;
  spec.round_size = options.gpipe_microbatches;
  spec.accumulation = options.accumulation_steps;
  spec.depth_override = options.pipeline_depth_override;
  std::vector<int> replicas;
  for (const StageAssignment& stage : plan.stages()) {
    replicas.push_back(stage.replicas);
  }
  const auto traced = TracedSequences(result.trace);
  for (const WorkerProgram& program :
       CompileSchedule(spec, replicas, 0, options.num_minibatches)) {
    const int stage = program.stages[0];
    OpSequence expected;
    for (const Instr& instr : program.instrs) {
      if (instr.op == OpCode::kFwd || instr.op == OpCode::kBwd) {
        expected.emplace_back(WorkTypeOf(instr.op), instr.minibatch);
      }
    }
    const auto it = traced.find(
        {stage, plan.stage(stage).workers[static_cast<size_t>(program.rank)]});
    ASSERT_TRUE(it != traced.end()) << what << ": stage " << stage << " rank " << program.rank;
    EXPECT_TRUE(it->second == expected)
        << what << ": stage " << stage << " rank " << program.rank
        << " ran out of its program's order";
  }
}

TEST(PolicyFuzzTest, OneFOneBRandomPlansNeverViolateTraceInvariants) {
  Rng rng(12345);
  for (int trial = 0; trial < 60; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/true, &rng);
    plan.Validate(layers);
    if (plan.total_workers() > 16) {
      continue;  // keep within the default trace_worker_limit
    }
    SimOptions options;
    options.schedule = ScheduleKind::kOneFOneB;
    // A replicated input stage admits minibatches round-robin; 24 is divisible by every
    // replica factor in 1..3, so all sync rounds complete.
    options.num_minibatches = 24;
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "1f1b trial " + std::to_string(trial) + " plan " +
                       plan.ConfigString(layers));
  }
}

TEST(PolicyFuzzTest, GPipeRandomDepthsNeverViolateTraceInvariants) {
  Rng rng(999);
  for (int trial = 0; trial < 40; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/false, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kGPipe;
    options.gpipe_microbatches = 1 + static_cast<int>(rng.UniformInt(6));
    // Any stream length: the last round is short when m does not divide it.
    options.num_minibatches = 2 + static_cast<int>(rng.UniformInt(24));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "gpipe-m" + std::to_string(options.gpipe_microbatches) + " trial " +
                       std::to_string(trial) + " plan " + plan.ConfigString(layers));
  }
}

TEST(PolicyFuzzTest, PipeDreamFlushRandomDepthsNeverViolateTraceInvariants) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/false, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kPipeDreamFlush;
    options.gpipe_microbatches = 1 + static_cast<int>(rng.UniformInt(6));
    options.num_minibatches = 2 + static_cast<int>(rng.UniformInt(24));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "flush-m" + std::to_string(options.gpipe_microbatches) + " trial " +
                       std::to_string(trial) + " plan " + plan.ConfigString(layers));
  }
}

TEST(PolicyFuzzTest, ModelParallelRandomPlansNeverViolateTraceInvariants) {
  Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/false, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kModelParallel;
    options.num_minibatches = 8 + static_cast<int>(rng.UniformInt(17));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "mp trial " + std::to_string(trial) + " plan " +
                       plan.ConfigString(layers));
  }
}

// Randomized microbatch stream lengths across all kinds on one fixed plan, including the
// pipeline-depth override knob for 1F1B.
TEST(PolicyFuzzTest, RandomMicrobatchStreams) {
  Rng rng(31337);
  const ModelProfile profile = RandomProfile(8, &rng);
  const PipelinePlan plan = MakeStraightPlan(8, {2, 4, 6});
  for (int trial = 0; trial < 30; ++trial) {
    SimOptions options;
    options.record_trace = true;
    const uint64_t kind = rng.UniformInt(3);
    if (kind == 0) {
      options.schedule = ScheduleKind::kOneFOneB;
      options.num_minibatches = 4 + static_cast<int>(rng.UniformInt(60));
      options.pipeline_depth_override = static_cast<int>(rng.UniformInt(5));  // 0 = default
    } else if (kind == 1) {
      options.schedule = ScheduleKind::kGPipe;
      options.gpipe_microbatches = 1 + static_cast<int>(rng.UniformInt(8));
      options.num_minibatches = 1 + static_cast<int>(rng.UniformInt(48));
    } else {
      options.schedule = ScheduleKind::kModelParallel;
      options.num_minibatches = 4 + static_cast<int>(rng.UniformInt(30));
    }
    RunAndValidate(profile, plan, options, "stream trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace pipedream
