// Online straggler detection: which stage is drifting slow *right now*?
//
// The elastic re-planner (runtime/elastic.h) reacts to a worker dying — a binary, late
// signal. A straggler degrades long before it dies: thermal throttling, a noisy neighbor,
// a background compaction. This detector watches every per-stage op time as it happens and
// keeps, per stage, an exponentially-weighted running mean/variance of op seconds plus a
// smoothed z-score of recent observations against that history:
//
//   z      = (x - ewma_mean) / sqrt(ewma_var)        (after a warmup of kWarmup samples)
//   score  = ewma over max(z, 0)                     (only *slow* drift is a straggler)
//
// Scores are published as obs/straggler_score/stage<N> callback gauges, and
// ElasticTrainer polls WorstStage() when ElasticOptions::straggler_replan_threshold is
// positive — a stage whose smoothed score crosses it triggers a re-plan exactly like a
// detected failure would, but proactively. A re-plan rebuilds the trainer, which resets
// the detector: the new plan starts with fresh statistics instead of the old plan's
// baseline.
#ifndef SRC_OBS_STRAGGLER_H_
#define SRC_OBS_STRAGGLER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace pipedream {
namespace obs {

struct StragglerOptions {
  double baseline_alpha = 0.05;  // EWMA weight for the mean/variance baseline
  double score_alpha = 0.2;      // EWMA weight for the smoothed score
  int warmup = 16;               // observations per stage before scoring starts
};

class StragglerDetector {
 public:
  using Options = StragglerOptions;

  explicit StragglerDetector(int num_stages, Options options = {});

  int num_stages() const { return static_cast<int>(stages_.size()); }

  // Feeds one op-time observation (seconds) for `stage`. Thread-safe; called from stage
  // workers on every fwd/bwd op.
  void Observe(int stage, double seconds);

  // The stage's current smoothed positive-z score (0 until warmed up).
  double Score(int stage) const;

  // The highest-scoring stage with score >= threshold, or -1 if none qualifies.
  int WorstStage(double threshold) const;

 private:
  struct StageState {
    mutable std::mutex mutex;
    int64_t n = 0;
    double mean = 0.0;
    double var = 0.0;
    double score = 0.0;
    // Read by the obs/straggler_score/stage<N> callback on the thread that serves
    // /metrics, without this stage's mutex.
    std::shared_ptr<std::atomic<double>> cell;
  };

  Options options_;
  std::vector<std::unique_ptr<StageState>> stages_;
};

}  // namespace obs
}  // namespace pipedream

#endif  // SRC_OBS_STRAGGLER_H_
