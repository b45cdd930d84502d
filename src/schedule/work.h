// Work-item vocabulary shared by the schedule compiler, the event-driven simulator, and the
// threaded runtime.
#ifndef SRC_SCHEDULE_WORK_H_
#define SRC_SCHEDULE_WORK_H_

#include <cstdint>

namespace pipedream {

enum class WorkType {
  kForward,
  kBackward,
};

inline const char* WorkTypeName(WorkType type) {
  return type == WorkType::kForward ? "forward" : "backward";
}

// Deterministic round-robin routing (§3.2, 1F1B-RR): minibatch `minibatch` is handled by
// replica `minibatch % replicas` of a stage, for both its forward and backward pass.
inline int RoundRobinReplica(int64_t minibatch, int replicas) {
  return static_cast<int>(minibatch % replicas);
}

}  // namespace pipedream

#endif  // SRC_SCHEDULE_WORK_H_
