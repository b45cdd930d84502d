// Seeded, deterministic fault injection for the pipeline training runtime.
//
// A FaultPlan is a replayable script of failures — kill a stage worker when it reaches
// minibatch k, stall it, or delay/drop/corrupt one inter-stage message. A FaultInjector
// executes the plan at runtime: workers consult it immediately before each unit of work and
// on every send, and each event fires exactly once (so a recovered epoch replaying the same
// minibatch does not re-trigger its own failure). Because every decision is keyed on
// (stage, replica, minibatch, direction) rather than wall time, a scenario replayed with the
// same seed is bitwise identical.
//
// Plans come from explicit construction (tests), FaultPlan::Random (fuzzing), or a spec
// string (FaultPlan::Parse; examples/fault_tolerance reads one from the environment).
#ifndef SRC_RUNTIME_FAULT_H_
#define SRC_RUNTIME_FAULT_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/planner/plan.h"
#include "src/schedule/work.h"

namespace pipedream {

enum class FaultKind {
  kKillWorker,      // the worker dies at the start of the targeted pass
  kStallWorker,     // the worker freezes for `duration_ms` (no heartbeats) then continues
  kDelayMessage,    // the targeted outgoing message is held for `duration_ms`
  kDropMessage,     // the targeted outgoing message is silently lost
  kCorruptMessage,  // the payload is bit-flipped after checksumming (detectable at receive)
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kKillWorker;
  int stage = 0;
  int replica = 0;
  // Worker faults: the minibatch whose forward/backward triggers the event. Message faults:
  // the minibatch id carried by the targeted outgoing message.
  int64_t minibatch = 0;
  WorkType work = WorkType::kForward;
  double duration_ms = 0.0;  // stall / delay only

  std::string ToString() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::string ToString() const;

  // Generates `num_faults` random events against a plan's stage/replica shape, drawn
  // deterministically from `seed`. Minibatch triggers fall in [0, num_minibatches).
  static FaultPlan Random(uint64_t seed, const PipelinePlan& plan, int64_t num_minibatches,
                          int num_faults = 1, double max_duration_ms = 50.0);

  // Parses a ';'-separated event list. Each event is `kind:key=value,...` with keys
  // stage, replica (default 0), mb, dir (fwd|bwd, default fwd), ms (duration). Kinds:
  // kill, stall, delay, drop, corrupt. Example:
  //   "kill:stage=1,mb=12;stall:stage=0,mb=30,ms=250"
  static Result<FaultPlan> Parse(const std::string& spec);
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
    fired_.assign(plan_.events.size(), false);
  }

  // What a worker must do right before running `work` for `minibatch`. At most one of the
  // fields is set; a fired event never fires again.
  struct WorkerAction {
    bool kill = false;
    double stall_ms = 0.0;
    std::string reason;
  };
  WorkerAction OnWorkStart(int stage, int replica, int64_t minibatch, WorkType work);

  // Fate of an outgoing message (consulted by the sender after the checksum is stamped).
  struct MessageAction {
    bool drop = false;
    bool corrupt = false;
    double delay_ms = 0.0;
    std::string reason;
  };
  MessageAction OnSend(int from_stage, int from_replica, int64_t minibatch, WorkType work);

  // Number of events that have fired so far.
  int64_t faults_fired() const;
  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  mutable std::mutex mutex_;
  std::vector<bool> fired_;
};

// Flips bits in `data` (deterministically) so a stamped checksum no longer matches.
void CorruptBytes(void* data, size_t size);

// Thrown control-flow signals inside worker threads. The trainer's thread wrapper catches
// these; they never escape TrainEpoch.
struct WorkerKilledError {
  std::string reason;
};
struct MessageCorruptionError {
  std::string reason;
};
struct EpochAbortedError {};

}  // namespace pipedream

#endif  // SRC_RUNTIME_FAULT_H_
