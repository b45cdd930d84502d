// Helpers shared by the benchmark's workloads: order statistics, the seeded open-loop
// arrival schedule, the serving ladder rule, the per-stage wall-time budget, metric naming,
// and the result line the benchmark prints last.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// The tail percentile a sample set can support: the highest of p99, p95, p90, p75 and p50
// that leaves at least `min_beyond` samples above it. Sets too small for p50 report p50.
// p99.9 is left out on purpose: over the run lengths used here it is too unsteady to gate.
struct TailSelection {
  double percentile = 50.0;  // e.g. 99.0
  double value = 0.0;        // the quantile of the samples at that percentile
  int64_t samples = 0;
};
TailSelection SelectTail(const std::vector<double>& samples, int64_t min_beyond = 10);

// Events per second in each whole `window`-second window of [start, end), from the events'
// timestamps (seconds, any order). Throughputs are reported as the median of these rates,
// so a transient stall of the host moves one window rather than the whole run.
std::vector<double> WindowRates(const std::vector<double>& times, double start, double end,
                                double window);

// SelectTail within each whole `window`-second window of `times` (the samples' timestamps,
// seconds from phase start; parallel to `samples`), then the median over windows. The
// percentile is the one every window supports.
TailSelection MedianWindowTail(const std::vector<double>& times,
                               const std::vector<double>& samples, double window,
                               int64_t min_beyond = 10);

// Open-loop arrivals: Poisson process at `rate_per_s`, offsets (seconds from phase start)
// for every arrival before `duration_s`. A pure function of (seed, rate, duration).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s, double duration_s);

// One step of the serving rate ladder, as measured.
struct LadderStep {
  double offered_rps = 0.0;
  double tail_ms = 0.0;             // SelectTail of the step's latencies
  double late_first_quarter_ms = 0.0;  // median generator lateness, first quarter of arrivals
  double late_last_quarter_ms = 0.0;   // ... and last quarter
};

// A step passes when its tail latency is within `limit_ms` and the generator's lateness did
// not grow across the step by more than `backlog_growth_ms` (a growing lateness means the
// server admits slower than the offered rate, so the backlog grows without bound).
bool LadderStepPasses(const LadderStep& step, double limit_ms, double backlog_growth_ms);

// Highest offered rate of the ladder prefix whose steps all pass; 0 when the first fails.
double MaxPassingRate(const std::vector<LadderStep>& steps, double limit_ms,
                      double backlog_growth_ms);

// Wall-time budget of one stage worker over a measured window. All inputs are seconds.
struct StageBudgetInput {
  double wall = 0.0;          // the window
  double op_span = 0.0;       // time inside fwd/bwd spans, weight-sync waits excluded
  double compute = 0.0;       // isolated compute for the same ops (probe times x op counts)
  double starved = 0.0;       // stall/starved_upstream
  double backpressure = 0.0;  // stall/backpressured_downstream
  double weight_sync = 0.0;   // stall/weight_sync
};
struct StageBudget {
  double compute_frac = 0.0;
  double op_overhead_frac = 0.0;  // span time beyond isolated compute
  double starved_frac = 0.0;
  double backpressure_frac = 0.0;
  double weight_sync_frac = 0.0;
  double unaccounted_frac = 0.0;  // residual: 1 minus the five above
  double Sum() const {
    return compute_frac + op_overhead_frac + starved_frac + backpressure_frac +
           weight_sync_frac + unaccounted_frac;
  }
};
StageBudget ComputeStageBudget(const StageBudgetInput& in);

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The deepest plan any workload runs. Per-stage metrics of a stage the workload does not
// have read 0.
inline constexpr int kMaxStages = 4;

// "<layer>.stage<N>.<what>", e.g. graph.stage0.fwd_ms.
std::string StageMetric(const char* layer, int stage, const char* what);

// Every metric the benchmark reports, in step with BENCHMARK.json: the end-to-end metrics
// of an untraced run, and the per-layer metrics of a traced run.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit, and are at most 64 long.
bool ValidMetricName(const std::string& name);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// The benchmark's result, printed as the last line of stdout.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::string ToJson() const;
};

// Formats a double with every significant digit (round-trip precision).
std::string FullDigits(double v);

// Escapes a string for a JSON string literal.
std::string JsonEscape(const std::string& s);

// Process high-water resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
