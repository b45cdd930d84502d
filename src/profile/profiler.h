// Runtime profiler: measures per-layer forward/backward wall time and records activation and
// parameter sizes for a real (CPU) model — the counterpart of the paper's "short profiling
// run on a single GPU" (Figure 6, left box).
#ifndef SRC_PROFILE_PROFILER_H_
#define SRC_PROFILE_PROFILER_H_

#include <utility>
#include <vector>

#include "src/graph/sequential.h"
#include "src/profile/layer_profile.h"

namespace pipedream {

struct ProfilerOptions {
  int warmup_batches = 1;    // un-timed passes to touch memory
  int measure_batches = 5;   // timed passes, averaged
};

// Runs `measure_batches` forward+backward passes of `model` on `sample_input` (a
// representative minibatch) and returns a ModelProfile with measured times and exact sizes.
// The backward pass is seeded with a uniform gradient of the output's shape and runs as the
// input stage runs it (Sequential::BackwardParams): the first parameterized layer's
// bwd_seconds covers its parameter gradients only, and the layers below it record 0.
ModelProfile ProfileModel(const Sequential& model, const Tensor& sample_input,
                          const std::string& model_name, const ProfilerOptions& options = {});

// The feedback half of the paper's profiler loop: aggregates the live runtime's per-stage
// op-time histograms (runtime/stage<s>/{fwd,bwd}_seconds in the metrics registry) into a
// MeasuredProfile. `stage_layers[s]` is the [begin, end) layer range stage s hosted (see
// planner/calibration.h for the plan-driven convenience). Stages whose histograms recorded
// nothing come back with samples == 0. Bracket the measured region with
// obs::MetricsRegistry::Get().Reset() so warmup minibatches don't dilute the means.
MeasuredProfile CollectMeasuredProfile(const std::vector<std::pair<int, int>>& stage_layers);

}  // namespace pipedream

#endif  // SRC_PROFILE_PROFILER_H_
