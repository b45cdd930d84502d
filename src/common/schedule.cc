#include "src/common/schedule.h"

namespace pipedream {

bool IsFlushFamily(ScheduleKind kind) {
  return kind == ScheduleKind::kGPipe || kind == ScheduleKind::kModelParallel ||
         kind == ScheduleKind::kPipeDreamFlush;
}

const char* ScheduleKindName(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kOneFOneB:
      return "1f1b";
    case ScheduleKind::kGPipe:
      return "gpipe";
    case ScheduleKind::kModelParallel:
      return "model_parallel";
    case ScheduleKind::kPipeDreamFlush:
      return "flush";
    case ScheduleKind::kInterleaved:
      return "interleaved";
  }
  return "unknown";
}

}  // namespace pipedream
