// Execution traces: the recorded op timeline of a simulated or real pipeline run.
//
// Both the discrete-event simulator and the threaded runtime emit these. The validator
// enforces every safety property of §3.2 — data dependencies, 1F1B-RR forward/backward
// replica affinity (required for weight stashing), and worker exclusivity — and the ASCII
// renderer regenerates the paper's timeline figures (Figures 2, 3, 4, 8).
#ifndef SRC_SCHEDULE_TRACE_H_
#define SRC_SCHEDULE_TRACE_H_

#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/planner/plan.h"
#include "src/schedule/work.h"

namespace pipedream {

struct TraceEvent {
  int worker = 0;
  int stage = 0;
  WorkType type = WorkType::kForward;
  int64_t minibatch = 0;
  SimTime start;
  SimTime end;
};

class ExecutionTrace {
 public:
  void Add(TraceEvent event) { events_.push_back(event); }
  // Drops the events matching `pred` (a restart discards the work it rolls back).
  template <typename Predicate>
  void EraseIf(Predicate pred) {
    std::erase_if(events_, pred);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  SimTime end_time() const;

  // Checks (a) ops on one worker never overlap, (b) forward of minibatch b at stage s starts
  // after its forward at stage s-1 ends, (c) backward at stage s starts after the backward at
  // stage s+1 (or, for the last stage, after its own forward), (d) forward and backward of a
  // minibatch run on the same worker of a stage, and (e) round-robin input routing.
  Status Validate(const PipelinePlan& plan) const;

  // Busy fraction of a worker between the first and last event in the trace.
  double WorkerUtilization(int worker) const;

  // Renders one row per worker; each column is a `slot`-wide time bucket. Forward passes show
  // the minibatch id, backward passes the id with a trailing '*', idle time a dot.
  std::string RenderAscii(SimTime slot, int num_workers, int max_columns = 64) const;

  // Chrome trace_event JSON of this (virtual-time) trace, one track per worker. The schema —
  // span names "fwd"/"bwd", {stage, minibatch} args — is identical to the runtime's
  // wall-clock traces (src/obs/trace.h), so sim and real runs of one schedule overlay
  // directly in Perfetto. WriteChromeJson returns false (and logs) on I/O failure.
  std::string ToChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace pipedream

#endif  // SRC_SCHEDULE_TRACE_H_
