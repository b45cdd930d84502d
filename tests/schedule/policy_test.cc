// Schedule-compiler tests: the exact program every member of the zoo compiles to, plus a
// global replay showing interleaved programs execute without wedging.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/schedule/program.h"

namespace pipedream {
namespace {

// One token per instruction: F<mb> forward, B<mb> backward, S<mb> Step, X<mb> Flush.
std::string Render(const std::vector<Instr>& instrs) {
  std::string out;
  for (const Instr& instr : instrs) {
    if (!out.empty()) {
      out += ' ';
    }
    out += "FBSX"[static_cast<int>(instr.op)];
    out += std::to_string(instr.minibatch);
  }
  return out;
}

ProgramSpec Spec(ScheduleKind kind, int round_size = 4) {
  ProgramSpec spec;
  spec.kind = kind;
  spec.round_size = round_size;
  return spec;
}

// Programs of an unreplicated `stages`-stage pipeline over minibatches [0, n).
std::vector<WorkerProgram> Straight(int stages, const ProgramSpec& spec, int64_t n) {
  return CompileSchedule(spec, std::vector<int>(static_cast<size_t>(stages), 1), 0, n);
}

TEST(StartupDepthTest, StraightPipeline) {
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  EXPECT_EQ(StartupDepth(plan, 0), 4);
  EXPECT_EQ(StartupDepth(plan, 1), 3);
  EXPECT_EQ(StartupDepth(plan, 2), 2);
  EXPECT_EQ(StartupDepth(plan, 3), 1);
}

TEST(StartupDepthTest, ReplicatedInputStage) {
  // Figure 8's 2-1 configuration: each input replica runs 2 forwards before its first
  // backward; the output stage runs 1.
  const auto plan = MakePlanFromShape({{3, 2}, {3, 1}});
  EXPECT_EQ(StartupDepth(plan, 0), 2);  // ceil(3 / 2)
  EXPECT_EQ(StartupDepth(plan, 1), 1);
}

TEST(StartupDepthTest, FifteenOne) {
  const auto plan = MakePlanFromShape({{18, 15}, {3, 1}});
  EXPECT_EQ(StartupDepth(plan, 0), 2);  // ceil(16/15) == NOAM
  EXPECT_EQ(plan.Noam(), StartupDepth(plan, 0));
}

TEST(OneFOneBProgramTest, StartupForwardsThenStrictAlternationThenDrain) {
  // Stage 0 of a 3-stage pipeline: startup depth 3, then strict alternation starting with
  // a backward (a ready forward never jumps the due backward), then the drain. Each
  // backward is its own update.
  const auto programs = Straight(3, Spec(ScheduleKind::kOneFOneB), 6);
  ASSERT_EQ(programs.size(), 3u);
  EXPECT_EQ(Render(programs[0].instrs),
            "F0 F1 F2 B0 S0 F3 B1 S1 F4 B2 S2 F5 B3 S3 B4 S4 B5 S5");
  EXPECT_EQ(Render(programs[2].instrs),
            "F0 B0 S0 F1 B1 S1 F2 B2 S2 F3 B3 S3 F4 B4 S4 F5 B5 S5");
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(programs[static_cast<size_t>(s)].stages, std::vector<int>{s});
    EXPECT_EQ(programs[static_cast<size_t>(s)].rank, 0);
  }
}

TEST(OneFOneBProgramTest, ShortRunDrainsDuringStartup) {
  // Only one minibatch ever exists: the depth-4 input stage runs its backward right after.
  EXPECT_EQ(Render(Straight(4, Spec(ScheduleKind::kOneFOneB), 1)[0].instrs), "F0 B0 S0");
}

TEST(OneFOneBProgramTest, AccumulationStepsEveryKBackwards) {
  ProgramSpec spec = Spec(ScheduleKind::kOneFOneB);
  spec.accumulation = 2;
  const auto programs = Straight(2, spec, 5);
  // The fifth backward starts an update the range never completes: no trailing Step.
  EXPECT_EQ(Render(programs[0].instrs), "F0 F1 B0 F2 B1 S1 F3 B2 F4 B3 S3 B4");
  EXPECT_EQ(Render(programs[1].instrs), "F0 B0 F1 B1 S1 F2 B2 F3 B3 S3 F4 B4");
}

TEST(OneFOneBProgramTest, RoundRobinSharesFollowTheRotation) {
  // 2-1 configuration: stage 0 has startup depth ceil(3 / 2) = 2 per replica, and each
  // replica runs exactly its residue class, in minibatch order.
  const auto programs =
      CompileSchedule(Spec(ScheduleKind::kOneFOneB), {2, 1}, /*begin=*/0, /*end=*/6);
  ASSERT_EQ(programs.size(), 3u);
  EXPECT_EQ(programs[1].rank, 1);
  EXPECT_EQ(Render(programs[0].instrs), "F0 F2 B0 S0 F4 B2 S2 B4 S4");
  EXPECT_EQ(Render(programs[1].instrs), "F1 F3 B1 S1 F5 B3 S3 B5 S5");
  EXPECT_EQ(Render(programs[2].instrs),
            "F0 B0 S0 F1 B1 S1 F2 B2 S2 F3 B3 S3 F4 B4 S4 F5 B5 S5");
}

TEST(OneFOneBProgramTest, RangeStartingMidRotationAlignsOnResidues) {
  // A replay from minibatch 3 (a restart, or a degraded rotation) keeps b % 2 routing.
  const auto programs = CompileSchedule(Spec(ScheduleKind::kOneFOneB), {2, 1}, 3, 7);
  EXPECT_EQ(Render(programs[0].instrs), "F4 F6 B4 S4 B6 S6");
  EXPECT_EQ(Render(programs[1].instrs), "F3 F5 B3 S3 B5 S5");
}

TEST(OneFOneBProgramTest, DepthOverrideCapsEveryStage) {
  ProgramSpec spec = Spec(ScheduleKind::kOneFOneB);
  spec.depth_override = 2;  // stage s admits max(1, min(4 - s, 2 - s)) forwards
  const auto programs = Straight(4, spec, 3);
  EXPECT_EQ(Render(programs[0].instrs), "F0 F1 B0 S0 F2 B1 S1 B2 S2");
  EXPECT_EQ(Render(programs[1].instrs), "F0 B0 S0 F1 B1 S1 F2 B2 S2");
}

TEST(GPipeProgramTest, AllForwardsThenAllBackwardsThenStepAndFlush) {
  // Every stage runs the round's m forwards, then its m backwards in minibatch order; the
  // short final round (7 is not a multiple of 3) closes the same way.
  const auto programs = Straight(2, Spec(ScheduleKind::kGPipe, 3), 7);
  for (const WorkerProgram& program : programs) {
    EXPECT_EQ(Render(program.instrs),
              "F0 F1 F2 B0 B1 B2 S2 X2 F3 F4 F5 B3 B4 B5 S5 X5 F6 B6 S6 X6");
  }
}

TEST(ModelParallelProgramTest, OneMinibatchAtATime) {
  const auto programs = Straight(3, Spec(ScheduleKind::kModelParallel, 4), 2);
  for (const WorkerProgram& program : programs) {
    EXPECT_EQ(Render(program.instrs), "F0 B0 S0 X0 F1 B1 S1 X1");
  }
}

TEST(PipeDreamFlushProgramTest, WarmupAlternationDrainThenFlush) {
  // Stage 1 of 3 has startup depth 2; in a round of m = 4 it warms up with two forwards,
  // alternates 1F1B, drains once all 4 forwards ran, then updates and flushes.
  const auto programs = Straight(3, Spec(ScheduleKind::kPipeDreamFlush, 4), 8);
  EXPECT_EQ(Render(programs[1].instrs),
            "F0 F1 B0 F2 B1 F3 B2 B3 S3 X3 F4 F5 B4 F6 B5 F7 B6 B7 S7 X7");
  // The last stage alternates from the first minibatch.
  EXPECT_EQ(Render(programs[2].instrs),
            "F0 B0 F1 B1 F2 B2 F3 B3 S3 X3 F4 B4 F5 B5 F6 B6 F7 B7 S7 X7");
}

TEST(PipeDreamFlushProgramTest, RoundSizeCapsTheWarmup) {
  // A depth-4 stage in rounds of 2: live stashes never exceed the round size.
  const auto programs = Straight(4, Spec(ScheduleKind::kPipeDreamFlush, 2), 4);
  EXPECT_EQ(Render(programs[0].instrs), "F0 F1 B0 B1 S1 X1 F2 F3 B2 B3 S3 X3");
}

TEST(InterleavedProgramTest, ChunksOneIsPlainOneFOneBPerStage) {
  // k = 1: worker w owns exactly stage w and its program is the plain 1F1B order.
  ProgramSpec spec = Spec(ScheduleKind::kInterleaved);
  spec.chunks = 1;
  const auto interleaved = Straight(2, spec, 3);
  const auto plain = Straight(2, Spec(ScheduleKind::kOneFOneB), 3);
  ASSERT_EQ(interleaved.size(), 2u);
  for (size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(interleaved[w].stages, plain[w].stages);
    EXPECT_EQ(Render(interleaved[w].instrs), Render(plain[w].instrs)) << w;
  }
  EXPECT_EQ(Render(interleaved[0].instrs), "F0 F1 B0 S0 F2 B1 S1 B2 S2");
}

TEST(InterleavedProgramTest, GeneratedListsAreCompleteAndExecutable) {
  // 6 chunk-stages on 3 workers, 5 minibatches: every stage must run every minibatch's
  // forward and backward exactly once, each worker only touches its own chunks, and a
  // global replay of the lists (execute any worker's head op whose dataflow inputs are
  // ready) must finish without wedging — the deadlock-freedom-by-construction claim.
  const int kStages = 6;
  const int64_t kMinibatches = 5;
  ProgramSpec spec = Spec(ScheduleKind::kInterleaved);
  spec.chunks = 2;
  const int workers = kStages / spec.chunks;
  const auto programs = Straight(kStages, spec, kMinibatches);
  ASSERT_EQ(programs.size(), static_cast<size_t>(workers));

  std::vector<int64_t> fwd_count(kStages, 0);
  std::vector<int64_t> bwd_count(kStages, 0);
  for (int w = 0; w < workers; ++w) {
    EXPECT_EQ(programs[w].stages, (std::vector<int>{w, w + workers}));
    for (const Instr& instr : programs[w].instrs) {
      EXPECT_EQ(instr.stage % workers, w);
      if (instr.op == OpCode::kFwd || instr.op == OpCode::kBwd) {
        (instr.op == OpCode::kFwd ? fwd_count : bwd_count)[instr.stage] += 1;
      }
    }
  }
  for (int s = 0; s < kStages; ++s) {
    EXPECT_EQ(fwd_count[s], kMinibatches) << s;
    EXPECT_EQ(bwd_count[s], kMinibatches) << s;
  }

  // Replay: op heads execute when their producer is ahead of them.
  std::vector<size_t> next(workers, 0);
  std::vector<int64_t> fwd_done(kStages, 0);
  std::vector<int64_t> bwd_done(kStages, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < workers; ++w) {
      while (next[w] < programs[w].instrs.size()) {
        const Instr& instr = programs[w].instrs[next[w]];
        const int s = instr.stage;
        bool ready = true;
        if (instr.op == OpCode::kFwd) {
          ready = s == 0 || fwd_done[s - 1] > fwd_done[s];
        } else if (instr.op == OpCode::kBwd) {
          ready = s == kStages - 1 ? fwd_done[s] > bwd_done[s]
                                   : bwd_done[s + 1] > bwd_done[s];
        }
        if (!ready) {
          break;
        }
        if (instr.op == OpCode::kFwd || instr.op == OpCode::kBwd) {
          (instr.op == OpCode::kFwd ? fwd_done : bwd_done)[s] += 1;
        }
        ++next[w];
        progress = true;
      }
    }
  }
  for (int w = 0; w < workers; ++w) {
    EXPECT_EQ(next[w], programs[w].instrs.size()) << "worker " << w << " wedged";
  }
}

TEST(RoundRobinTest, ReplicaAssignment) {
  EXPECT_EQ(RoundRobinReplica(0, 2), 0);
  EXPECT_EQ(RoundRobinReplica(1, 2), 1);
  EXPECT_EQ(RoundRobinReplica(2, 2), 0);
  EXPECT_EQ(RoundRobinReplica(7, 3), 1);
  EXPECT_EQ(RoundRobinReplica(5, 1), 0);
}

}  // namespace
}  // namespace pipedream
