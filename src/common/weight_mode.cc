#include "src/common/weight_mode.h"

namespace pipedream {

const char* WeightModeName(WeightMode mode) {
  switch (mode) {
    case WeightMode::kNaive:
      return "naive";
    case WeightMode::kStashing:
      return "stashing";
    case WeightMode::kVerticalSync:
      return "vertical_sync";
    case WeightMode::kDoubleBuffered:
      return "double_buffered";
  }
  return "?";
}

}  // namespace pipedream
