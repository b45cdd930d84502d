#include "src/obs/bubble.h"

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace pipedream {
namespace obs {

const char* StallCauseName(StallCause cause) {
  switch (cause) {
    case StallCause::kStarvedUpstream:
      return "starved_upstream";
    case StallCause::kBackpressuredDownstream:
      return "backpressured_downstream";
    case StallCause::kWeightSync:
      return "weight_sync";
    case StallCause::kRecovery:
      return "recovery";
  }
  return "unknown";
}

const char* StallCauseSpanName(StallCause cause) {
  switch (cause) {
    case StallCause::kStarvedUpstream:
      return "stall/starved_upstream";
    case StallCause::kBackpressuredDownstream:
      return "stall/backpressured_downstream";
    case StallCause::kWeightSync:
      return "stall/weight_sync";
    case StallCause::kRecovery:
      return "stall/recovery";
  }
  return "stall";
}

BubbleAccountant::BubbleAccountant(int num_stages) : stages_(num_stages) {
  PD_CHECK(num_stages > 0);
  for (int s = 0; s < num_stages; ++s) {
    StageCell& cell = stages_[static_cast<size_t>(s)];
    for (int c = 0; c < kNumStallCauses; ++c) {
      const char* cause = StallCauseName(static_cast<StallCause>(c));
      cell.total_ns[static_cast<size_t>(c)] =
          GetCounter(StrFormat("runtime/stage%d/bubble/%s_ns", s, cause));
      auto value = std::make_shared<std::atomic<double>>(0.0);
      cell.fraction[static_cast<size_t>(c)] = value;
      MetricsRegistry::Get().SetCallback(
          StrFormat("runtime/stage%d/bubble_frac/%s", s, cause),
          [value] { return value->load(std::memory_order_relaxed); });
    }
  }
}

void BubbleAccountant::Add(int stage, StallCause cause, int64_t ns) {
  if (stage < 0 || stage >= num_stages() || ns <= 0) {
    return;
  }
  StageCell& cell = stages_[static_cast<size_t>(stage)];
  const size_t c = static_cast<size_t>(cause);
  cell.window_ns[c].fetch_add(ns, std::memory_order_relaxed);
  cell.total_ns[c]->Add(ns);
}

void BubbleAccountant::AddAll(StallCause cause, int64_t ns) {
  for (int s = 0; s < num_stages(); ++s) {
    Add(s, cause, ns);
  }
}

void BubbleAccountant::FinishWindow(int stage, double window_seconds) {
  if (stage < 0 || stage >= num_stages()) {
    return;
  }
  StageCell& cell = stages_[static_cast<size_t>(stage)];
  for (int c = 0; c < kNumStallCauses; ++c) {
    const int64_t ns = cell.window_ns[static_cast<size_t>(c)].exchange(
        0, std::memory_order_relaxed);
    cell.fraction[static_cast<size_t>(c)]->store(
        window_seconds > 0 ? static_cast<double>(ns) * 1e-9 / window_seconds : 0.0,
        std::memory_order_relaxed);
  }
}

int64_t BubbleAccountant::WindowNs(int stage, StallCause cause) const {
  if (stage < 0 || stage >= num_stages()) {
    return 0;
  }
  return stages_[static_cast<size_t>(stage)]
      .window_ns[static_cast<size_t>(cause)]
      .load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace pipedream
