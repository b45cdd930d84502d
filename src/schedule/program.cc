#include "src/schedule/program.h"

#include <algorithm>

#include "src/common/check.h"

namespace pipedream {

namespace {

int StartupDepthOf(const std::vector<int>& replicas, int stage) {
  int downstream_workers = 0;
  for (size_t s = static_cast<size_t>(stage); s < replicas.size(); ++s) {
    downstream_workers += replicas[s];
  }
  const int own = replicas[static_cast<size_t>(stage)];
  return (downstream_workers + own - 1) / own;  // ceil
}

// A replica's minibatches within [begin, end): first, first + stride, ...
struct Share {
  int64_t first = 0;
  int64_t stride = 1;
  int64_t count = 0;

  int64_t at(int64_t i) const { return first + i * stride; }
};

Share ShareOf(int64_t begin, int64_t end, int rank, int replicas) {
  // Align on the residue class: `begin` need not be a multiple of the rotation size (a
  // restart or a degraded rotation starts mid-cycle).
  const int64_t first = begin + ((rank - begin) % replicas + replicas) % replicas;
  return {first, replicas, first < end ? (end - first + replicas - 1) / replicas : 0};
}

// Appends the 1F1B sequence of one replica over `share`: min(depth, count) forwards, strict
// alternation starting with a backward, then the drain. With `step_every` > 0 a Step
// follows every step_every-th backward.
void AppendOneFOneB(int stage, const Share& share, int depth, int step_every,
                    std::vector<Instr>* out) {
  int64_t f = 0;
  int64_t b = 0;
  const auto backward = [&] {
    out->push_back({OpCode::kBwd, stage, share.at(b++)});
    if (step_every > 0 && b % step_every == 0) {
      out->push_back({OpCode::kStep, stage, share.at(b - 1)});
    }
  };
  for (const int64_t warm = std::min<int64_t>(depth, share.count); f < warm; ++f) {
    out->push_back({OpCode::kFwd, stage, share.at(f)});
  }
  while (f < share.count) {
    backward();
    out->push_back({OpCode::kFwd, stage, share.at(f++)});
  }
  while (b < share.count) {
    backward();
  }
}

// Merges the chunks' 1F1B sequences into one list per physical worker. Each unit-time tick
// every worker starts at most one op — the deepest chunk whose next op has its input —
// and an op's output becomes consumable the tick after it started.
std::vector<WorkerProgram> CompileInterleaved(const ProgramSpec& spec, int num_stages,
                                              int64_t begin, int64_t end) {
  PD_CHECK_GE(spec.chunks, 1);
  PD_CHECK(num_stages % spec.chunks == 0)
      << "interleaving needs num_stages (" << num_stages << ") divisible by chunks ("
      << spec.chunks << ")";
  const int num_workers = num_stages / spec.chunks;
  std::vector<std::vector<Instr>> chunk_ops(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    AppendOneFOneB(s, ShareOf(begin, end, 0, 1), num_stages - s, spec.accumulation,
                   &chunk_ops[static_cast<size_t>(s)]);
  }
  std::vector<WorkerProgram> programs(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    for (int s = w; s < num_stages; s += num_workers) {
      programs[static_cast<size_t>(w)].stages.push_back(s);
    }
  }
  std::vector<size_t> cursor(static_cast<size_t>(num_stages), 0);
  std::vector<int64_t> ready_fwd(static_cast<size_t>(num_stages), 0);
  std::vector<int64_t> ready_bwd(static_cast<size_t>(num_stages), 0);
  std::vector<Instr> started;  // this tick's ops, delivered next tick
  size_t remaining = 0;
  for (const auto& ops : chunk_ops) {
    remaining += ops.size();
  }
  while (remaining > 0) {
    const bool delivered = !started.empty();
    for (const Instr& op : started) {
      if (op.op == OpCode::kFwd) {
        // The output stage turns its forward around locally.
        ++(op.stage + 1 < num_stages ? ready_fwd[static_cast<size_t>(op.stage + 1)]
                                     : ready_bwd[static_cast<size_t>(op.stage)]);
      } else if (op.stage > 0) {
        ++ready_bwd[static_cast<size_t>(op.stage - 1)];
      }
    }
    started.clear();
    for (int w = 0; w < num_workers; ++w) {
      for (int c = spec.chunks - 1; c >= 0; --c) {
        const size_t s = static_cast<size_t>(c * num_workers + w);
        const std::vector<Instr>& ops = chunk_ops[s];
        if (cursor[s] == ops.size()) {
          continue;
        }
        const Instr& op = ops[cursor[s]];
        if (op.op == OpCode::kBwd || s > 0) {  // the loader feeds stage 0's forwards
          int64_t& ready = op.op == OpCode::kFwd ? ready_fwd[s] : ready_bwd[s];
          if (ready == 0) {
            continue;
          }
          --ready;
        }
        std::vector<Instr>& out = programs[static_cast<size_t>(w)].instrs;
        // The op plus the Steps that follow it: an update takes no slot of its own.
        do {
          out.push_back(ops[cursor[s]++]);
          --remaining;
        } while (cursor[s] < ops.size() && ops[cursor[s]].op == OpCode::kStep);
        started.push_back(op);
        break;
      }
    }
    PD_CHECK(!started.empty() || delivered)
        << "interleaved schedule generation wedged with " << remaining
        << " ops left — no worker can act and nothing is in flight";
  }
  return programs;
}

}  // namespace

int StartupDepth(const PipelinePlan& plan, int stage) {
  PD_CHECK(stage >= 0 && stage < plan.num_stages());
  std::vector<int> replicas;
  for (const StageAssignment& s : plan.stages()) {
    replicas.push_back(s.replicas);
  }
  return StartupDepthOf(replicas, stage);
}

std::vector<WorkerProgram> CompileSchedule(const ProgramSpec& spec,
                                           const std::vector<int>& replicas, int64_t begin,
                                           int64_t end) {
  const int num_stages = static_cast<int>(replicas.size());
  PD_CHECK_GE(num_stages, 1);
  PD_CHECK_LE(begin, end);
  PD_CHECK_GE(spec.accumulation, 1);
  for (int r : replicas) {
    PD_CHECK_GE(r, 1);
  }
  if (spec.kind == ScheduleKind::kInterleaved) {
    for (int r : replicas) {
      PD_CHECK_EQ(r, 1) << "interleaved virtual stages require an unreplicated pipeline";
    }
    return CompileInterleaved(spec, num_stages, begin, end);
  }
  const bool flush_family = IsFlushFamily(spec.kind);
  const int64_t round = spec.kind == ScheduleKind::kModelParallel ? 1 : spec.round_size;
  PD_CHECK_GE(round, 1);
  std::vector<WorkerProgram> programs;
  for (int s = 0; s < num_stages; ++s) {
    int depth = StartupDepthOf(replicas, s);
    if (spec.kind == ScheduleKind::kGPipe) {
      depth = static_cast<int>(round);
    } else if (spec.kind == ScheduleKind::kOneFOneB && spec.depth_override > 0) {
      depth = std::max(1, std::min(depth, spec.depth_override - s));
    }
    for (int rank = 0; rank < replicas[static_cast<size_t>(s)]; ++rank) {
      WorkerProgram program;
      program.stages = {s};
      program.rank = rank;
      const int rotation = replicas[static_cast<size_t>(s)];
      if (!flush_family) {
        AppendOneFOneB(s, ShareOf(begin, end, rank, rotation), depth, spec.accumulation,
                       &program.instrs);
      } else {
        for (int64_t r = begin; r < end; r += round) {
          const int64_t round_end = std::min(end, r + round);
          const Share share = ShareOf(r, round_end, rank, rotation);
          if (share.count > 0) {
            AppendOneFOneB(s, share, depth, 0, &program.instrs);
            program.instrs.push_back({OpCode::kStep, s, share.at(share.count - 1)});
          }
          program.instrs.push_back({OpCode::kFlush, s, round_end - 1});
        }
      }
      programs.push_back(std::move(program));
    }
  }
  return programs;
}

}  // namespace pipedream
