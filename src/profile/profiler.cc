#include "src/profile/profiler.h"

#include <algorithm>
#include <chrono>

#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace pipedream {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ModelProfile ProfileModel(const Sequential& model, const Tensor& sample_input,
                          const std::string& model_name, const ProfilerOptions& options) {
  PD_CHECK_GT(options.measure_batches, 0);
  const size_t n = model.size();

  ModelProfile profile;
  profile.model_name = model_name;
  profile.device_name = "cpu";
  profile.minibatch_size = sample_input.dim(0);
  profile.layers.resize(n);

  // Layer 0 always runs on the input stage, so the backward is timed the way that stage
  // runs it (Sequential::BackwardParams).
  const size_t first_param = model.FirstParameterizedLayer();
  std::vector<LayerContext> contexts(n);
  const int total_passes = options.warmup_batches + options.measure_batches;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool timed = pass >= options.warmup_batches;
    // Forward, per layer.
    Tensor current = sample_input;
    for (size_t i = 0; i < n; ++i) {
      const double start = NowSeconds();
      current = model.layer(i)->Forward(current, &contexts[i], /*training=*/true);
      if (timed) {
        profile.layers[i].fwd_seconds += NowSeconds() - start;
        profile.layers[i].activation_bytes = current.SizeBytes();
      }
    }
    // Backward, per layer, seeded with a small uniform gradient.
    Tensor grad(current.shape());
    grad.Fill(1e-3f);
    model.ZeroGrads();
    for (size_t i = n; i > first_param; --i) {
      Layer* layer = model.layer(i - 1);
      const double start = NowSeconds();
      if (i - 1 == first_param) {
        layer->BackwardParams(grad, &contexts[i - 1]);
      } else {
        grad = layer->Backward(grad, &contexts[i - 1]);
      }
      if (timed) {
        profile.layers[i - 1].bwd_seconds += NowSeconds() - start;
      }
    }
  }

  const double inv = 1.0 / options.measure_batches;
  for (size_t i = 0; i < n; ++i) {
    profile.layers[i].name = model.layer(i)->name();
    profile.layers[i].fwd_seconds *= inv;
    profile.layers[i].bwd_seconds *= inv;
    profile.layers[i].param_bytes = model.layer(i)->ParamBytes();
  }
  return profile;
}

MeasuredProfile CollectMeasuredProfile(const std::vector<std::pair<int, int>>& stage_layers) {
  MeasuredProfile measured;
  measured.source = "runtime";
  measured.stages.reserve(stage_layers.size());
  for (size_t s = 0; s < stage_layers.size(); ++s) {
    MeasuredStageOps ops;
    ops.stage = static_cast<int>(s);
    ops.begin_layer = stage_layers[s].first;
    ops.end_layer = stage_layers[s].second;
    const RunningStat fwd =
        obs::GetHistogram(StrFormat("runtime/stage%d/fwd_seconds", ops.stage))->snapshot();
    const RunningStat bwd =
        obs::GetHistogram(StrFormat("runtime/stage%d/bwd_seconds", ops.stage))->snapshot();
    // A forward-only tail (pipeline drain) can leave the counts slightly unequal; the
    // means are per-op either way. `samples` reports the smaller side so consumers can
    // judge confidence.
    ops.fwd_seconds = fwd.count() > 0 ? fwd.mean() : 0.0;
    ops.bwd_seconds = bwd.count() > 0 ? bwd.mean() : 0.0;
    ops.samples = std::min(fwd.count(), bwd.count());
    if (ops.samples == 0) {
      ops.samples = std::max(fwd.count(), bwd.count());
    }
    measured.stages.push_back(ops);
  }
  return measured;
}

}  // namespace pipedream
