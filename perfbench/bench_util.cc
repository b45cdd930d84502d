#include "perfbench/bench_util.h"

#include <algorithm>
#include <iterator>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/rng.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

TailSelection SelectTail(const std::vector<double>& samples, int64_t min_beyond) {
  static const double kPercentiles[] = {99.0, 95.0, 90.0, 75.0, 50.0};
  TailSelection sel;
  sel.samples = static_cast<int64_t>(samples.size());
  for (const double p : kPercentiles) {
    // Samples strictly above the p-th percentile: n * (1 - p/100).
    const double beyond = static_cast<double>(sel.samples) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond) || p == 50.0) {
      sel.percentile = p;
      sel.value = Quantile(samples, p / 100.0);
      return sel;
    }
  }
  return sel;
}

std::vector<double> WindowRates(const std::vector<double>& times, double start, double end,
                                double window) {
  const int64_t n = static_cast<int64_t>((end - start) / window);
  if (n < 1) {
    return {end > start ? static_cast<double>(times.size()) / (end - start) : 0.0};
  }
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  for (const double t : times) {
    const double k = std::floor((t - start) / window);
    if (k >= 0.0 && k < static_cast<double>(n)) {
      ++counts[static_cast<size_t>(k)];
    }
  }
  std::vector<double> rates;
  rates.reserve(counts.size());
  for (const int64_t c : counts) {
    rates.push_back(static_cast<double>(c) / window);
  }
  return rates;
}

TailSelection MedianWindowTail(const std::vector<double>& times,
                               const std::vector<double>& samples, double window,
                               int64_t min_beyond) {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < times.size() && i < samples.size(); ++i) {
    windows[static_cast<int64_t>(std::floor(times[i] / window))].push_back(samples[i]);
  }
  if (windows.size() > 1) {
    windows.erase(std::prev(windows.end()));  // the trailing window is partial
  }
  TailSelection sel;
  sel.samples = static_cast<int64_t>(samples.size());
  if (windows.empty()) {
    return sel;
  }
  size_t smallest = samples.size();
  for (const auto& [k, w] : windows) {
    smallest = std::min(smallest, w.size());
  }
  sel.percentile = SelectTail(std::vector<double>(smallest, 0.0), min_beyond).percentile;
  std::vector<double> tails;
  for (const auto& [k, w] : windows) {
    tails.push_back(Quantile(w, sel.percentile / 100.0));
  }
  sel.value = Median(tails);
  return sel;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s, double duration_s) {
  std::vector<double> offsets;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) {
    return offsets;
  }
  pipedream::Rng rng(seed);
  offsets.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.NextDouble()) / rate_per_s;
    if (t >= duration_s) {
      break;
    }
    offsets.push_back(t);
  }
  return offsets;
}

bool LadderStepPasses(const LadderStep& step, double limit_ms, double backlog_growth_ms) {
  return step.tail_ms <= limit_ms &&
         step.late_last_quarter_ms - step.late_first_quarter_ms <= backlog_growth_ms;
}

double MaxPassingRate(const std::vector<LadderStep>& steps, double limit_ms,
                      double backlog_growth_ms) {
  double best = 0.0;
  for (const LadderStep& step : steps) {
    if (!LadderStepPasses(step, limit_ms, backlog_growth_ms)) {
      break;
    }
    best = step.offered_rps;
  }
  return best;
}

StageBudget ComputeStageBudget(const StageBudgetInput& in) {
  StageBudget b;
  if (in.wall <= 0.0) {
    return b;
  }
  b.compute_frac = in.compute / in.wall;
  b.op_overhead_frac = (in.op_span - in.compute) / in.wall;
  b.starved_frac = in.starved / in.wall;
  b.backpressure_frac = in.backpressure / in.wall;
  b.weight_sync_frac = in.weight_sync / in.wall;
  b.unaccounted_frac = 1.0 - (b.compute_frac + b.op_overhead_frac + b.starved_frac +
                              b.backpressure_frac + b.weight_sync_frac);
  return b;
}

std::string StageMetric(const char* layer, int stage, const char* what) {
  return std::string(layer) + ".stage" + std::to_string(stage) + "." + what;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"op_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> m = {
        {"tensor.gemm_gflops", "GF/s"},
        {"tensor.conv_fwd_gflops", "GF/s"},
        {"tensor.conv_bwd_gflops", "GF/s"},
        {"tensor.pool_hit_rate", "fraction"},
        {"tensor.heap_allocs_per_op", "count"},
        {"tensor.pool_peak_mb", "MB"},
        {"data.batch_us", "us"},
        {"runtime.transport.hop_us", "us"},
        {"runtime.transport.bytes_per_op", "B"},
        {"runtime.transport.messages_per_op", "count"},
        {"runtime.allreduce_ms", "ms"},
        {"runtime.checkpoint_save_ms", "ms"},
        {"runtime.epoch_edge_ms", "ms"},
        {"runtime.pipeline_efficiency", "fraction"},
        {"runtime.one_worker_samples_per_s", "1/s"},
        {"runtime.serving.rtt_us", "us"},
        {"runtime.serving.overhead_ms", "ms"},
        {"runtime.serving.gen_late_ms", "ms"},
        {"runtime.serving.max_rps", "1/s"},
        {"planner.partition_ms", "ms"},
        {"planner.predict_us", "us"},
        {"planner.frontier_ms", "ms"},
        {"simexec.1f1b.minibatches_per_s", "1/s"},
        {"simexec.gpipe.minibatches_per_s", "1/s"},
        {"simexec.flush.minibatches_per_s", "1/s"},
        {"simexec.interleaved.minibatches_per_s", "1/s"},
        {"obs.trace_overhead_frac", "fraction"},
    };
    for (int s = 0; s < kMaxStages; ++s) {
      for (const char* what : {"fwd_ms", "bwd_ms", "infer_ms"}) {
        m.push_back({StageMetric("graph", s, what), "ms"});
      }
      m.push_back({StageMetric("optim", s, "step_ms"), "ms"});
      for (const char* what : {"compute_frac", "op_overhead_frac", "starved_frac",
                               "backpressure_frac", "weight_sync_frac", "unaccounted_frac"}) {
        m.push_back({StageMetric("runtime", s, what), "fraction"});
      }
    }
    return m;
  }();
  return metrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) {
    return false;
  }
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::string FullDigits(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Result::ToJson() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": {\"value\": "
       << FullDigits(metric.value) << ", \"unit\": \"" << JsonEscape(metric.unit) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
