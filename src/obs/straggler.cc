#include "src/obs/straggler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"

namespace pipedream {
namespace obs {

StragglerDetector::StragglerDetector(int num_stages, Options options) : options_(options) {
  PD_CHECK(num_stages > 0);
  PD_CHECK(options_.baseline_alpha > 0.0 && options_.baseline_alpha <= 1.0);
  PD_CHECK(options_.score_alpha > 0.0 && options_.score_alpha <= 1.0);
  stages_.reserve(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    auto state = std::make_unique<StageState>();
    state->cell = std::make_shared<std::atomic<double>>(0.0);
    const std::shared_ptr<std::atomic<double>> cell = state->cell;
    MetricsRegistry::Get().SetCallback(StrFormat("obs/straggler_score/stage%d", s), [cell] {
      return cell->load(std::memory_order_relaxed);
    });
    stages_.push_back(std::move(state));
  }
}

void StragglerDetector::Observe(int stage, double seconds) {
  if (stage < 0 || stage >= num_stages() || !(seconds >= 0.0)) {
    return;
  }
  StageState& st = *stages_[static_cast<size_t>(stage)];
  std::lock_guard<std::mutex> lock(st.mutex);
  ++st.n;
  if (st.n == 1) {
    st.mean = seconds;
    st.var = 0.0;
    return;
  }
  // Score against the baseline *before* folding the observation in: a sudden slowdown must
  // not dilute the very statistics it is judged against.
  if (st.n > options_.warmup && st.var > 0.0) {
    const double z = (seconds - st.mean) / std::sqrt(st.var);
    const double positive = std::max(z, 0.0);
    st.score += options_.score_alpha * (positive - st.score);
    st.cell->store(st.score, std::memory_order_relaxed);
  }
  // West's EWMA update for mean and variance.
  const double diff = seconds - st.mean;
  const double incr = options_.baseline_alpha * diff;
  st.mean += incr;
  st.var = (1.0 - options_.baseline_alpha) * (st.var + diff * incr);
}

double StragglerDetector::Score(int stage) const {
  if (stage < 0 || stage >= num_stages()) {
    return 0.0;
  }
  const StageState& st = *stages_[static_cast<size_t>(stage)];
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.score;
}

int StragglerDetector::WorstStage(double threshold) const {
  int worst = -1;
  double worst_score = 0.0;
  for (int s = 0; s < num_stages(); ++s) {
    const double score = Score(s);
    if (score >= threshold && score > worst_score) {
      worst = s;
      worst_score = score;
    }
  }
  return worst;
}

}  // namespace obs
}  // namespace pipedream
