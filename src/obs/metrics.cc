#include "src/obs/metrics.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <variant>

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/common/strings.h"

namespace pipedream {
namespace obs {
namespace {

std::string JsonEscapeName(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters are never legal raw inside a JSON string; metric names are
      // ASCII identifiers in practice, but a hostile name must not produce invalid JSON.
      switch (c) {
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default: out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
      }
    } else {
      out += c;
    }
  }
  return out;
}

// Prometheus metric names admit only [a-zA-Z0-9_:]; everything else (the registry's '/'
// separators included) maps to '_', with a "pipedream_" namespace prefix.
std::string PrometheusName(const std::string& s) {
  std::string out = "pipedream_";
  out.reserve(out.size() + s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// %g keeps integers clean (no trailing .000000) and large/small values readable.
std::string NumberJson(double v) { return StrFormat("%.17g", v); }

}  // namespace

double Histogram::Quantile(double q) const {
  PD_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = samples_;
  }
  if (sorted.empty()) {
    return 0.0;
  }
  std::sort(sorted.begin(), sorted.end());
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct MetricsRegistry::Impl {
  using Metric = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                              std::unique_ptr<Histogram>>;
  mutable std::mutex mutex;
  std::map<std::string, Metric> metrics;                        // sorted for stable dumps
  std::map<std::string, std::function<double()>> callbacks;

  template <typename T>
  T* GetTyped(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = metrics.find(name);
    if (it == metrics.end()) {
      auto metric = std::make_unique<T>();
      T* raw = metric.get();
      metrics.emplace(name, std::move(metric));
      return raw;
    }
    auto* held = std::get_if<std::unique_ptr<T>>(&it->second);
    PD_CHECK(held != nullptr) << "metric '" << name
                              << "' already registered as another kind";
    return held->get();
  }
};

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaky: usable during atexit
  return *registry;
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {
  // Log-level counts live in common/logging (which cannot depend on this layer); surface
  // them as dump-time callbacks so WARNING+ diagnostics are visible in every metrics dump.
  SetCallback("log/warnings", [] {
    return static_cast<double>(GetLogCount(LogLevel::kWarning));
  });
  SetCallback("log/errors",
              [] { return static_cast<double>(GetLogCount(LogLevel::kError)); });
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return impl_->GetTyped<Counter>(name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return impl_->GetTyped<Gauge>(name);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return impl_->GetTyped<Histogram>(name);
}

void MetricsRegistry::SetCallback(const std::string& name, std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->callbacks[name] = std::move(fn);
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::string counters;
  std::string gauges;
  std::string histograms;
  for (const auto& [name, metric] : impl_->metrics) {
    const std::string key = "\"" + JsonEscapeName(name) + "\": ";
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      if (!counters.empty()) counters += ",\n    ";
      counters += key + StrFormat("%lld", static_cast<long long>((*c)->value()));
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      if (!gauges.empty()) gauges += ",\n    ";
      gauges += key + StrFormat("%lld", static_cast<long long>((*g)->value()));
    } else {
      const RunningStat s = std::get<std::unique_ptr<Histogram>>(metric)->snapshot();
      if (!histograms.empty()) histograms += ",\n    ";
      histograms += key +
                    StrFormat("{\"count\": %lld, \"mean\": %s, \"stddev\": %s, \"min\": %s, "
                              "\"max\": %s, \"sum\": %s}",
                              static_cast<long long>(s.count()), NumberJson(s.mean()).c_str(),
                              NumberJson(s.stddev()).c_str(), NumberJson(s.min()).c_str(),
                              NumberJson(s.max()).c_str(), NumberJson(s.sum()).c_str());
    }
  }
  std::string values;
  for (const auto& [name, fn] : impl_->callbacks) {
    if (!values.empty()) values += ",\n    ";
    values += "\"" + JsonEscapeName(name) + "\": " + NumberJson(fn());
  }
  std::string out = "{\n";
  out += "  \"counters\": {\n    " + counters + "\n  },\n";
  out += "  \"gauges\": {\n    " + gauges + "\n  },\n";
  out += "  \"histograms\": {\n    " + histograms + "\n  },\n";
  out += "  \"values\": {\n    " + values + "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  // Snapshot the histogram pointers first, then compute quantiles outside the registry
  // mutex: Quantile sorts a copy of the reservoir under the histogram's own lock, and a
  // concurrent Observe must never block on a dump in progress.
  std::string out;
  std::vector<std::pair<std::string, const Histogram*>> hists;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& [name, metric] : impl_->metrics) {
      const std::string pname = PrometheusName(name);
      if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
        out += "# TYPE " + pname + " counter\n";
        out += pname + StrFormat(" %lld\n", static_cast<long long>((*c)->value()));
      } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
        out += "# TYPE " + pname + " gauge\n";
        out += pname + StrFormat(" %lld\n", static_cast<long long>((*g)->value()));
      } else {
        hists.emplace_back(name, std::get<std::unique_ptr<Histogram>>(metric).get());
      }
    }
    for (const auto& [name, fn] : impl_->callbacks) {
      const std::string pname = PrometheusName(name);
      out += "# TYPE " + pname + " gauge\n";
      out += pname + " " + NumberJson(fn()) + "\n";
    }
  }
  for (const auto& [name, hist] : hists) {
    const std::string pname = PrometheusName(name);
    const RunningStat s = hist->snapshot();
    out += "# TYPE " + pname + " summary\n";
    for (const double q : {0.5, 0.99, 0.999}) {
      // %g for the label, not NumberJson's round-trip precision: the label is an
      // identifier ("0.99"), and 17 significant digits would print its binary neighbor.
      out += pname + "{quantile=\"" + StrFormat("%g", q) + "\"} " +
             NumberJson(hist->Quantile(q)) + "\n";
    }
    out += pname + "_sum " + NumberJson(s.sum()) + "\n";
    out += pname + StrFormat("_count %lld\n", static_cast<long long>(s.count()));
  }
  return out;
}

Table MetricsRegistry::ToTable() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Table table({"metric", "kind", "value", "count", "mean", "min", "max"});
  for (const auto& [name, metric] : impl_->metrics) {
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      table.AddRow({name, "counter", StrFormat("%lld", static_cast<long long>((*c)->value())),
                    "", "", "", ""});
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      table.AddRow({name, "gauge", StrFormat("%lld", static_cast<long long>((*g)->value())),
                    "", "", "", ""});
    } else {
      const RunningStat s = std::get<std::unique_ptr<Histogram>>(metric)->snapshot();
      table.AddRow({name, "histogram", "", StrFormat("%lld", static_cast<long long>(s.count())),
                    StrFormat("%.6g", s.mean()), StrFormat("%.6g", s.min()),
                    StrFormat("%.6g", s.max())});
    }
  }
  for (const auto& [name, fn] : impl_->callbacks) {
    table.AddRow({name, "value", StrFormat("%.6g", fn()), "", "", "", ""});
  }
  return table;
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PD_LOG(WARNING) << "cannot open metrics file " << path;
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) {
    PD_LOG(WARNING) << "short write to metrics file " << path;
  }
  return ok;
}

bool MetricsRegistry::WriteJsonAtomic(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  if (!WriteJson(tmp)) {
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    PD_LOG(WARNING) << "cannot rename " << tmp << " into place as " << path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugesWithPrefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, int64_t>> out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto it = impl_->metrics.lower_bound(prefix); it != impl_->metrics.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;  // the map is sorted; past the prefix range
    }
    if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&it->second)) {
      out.emplace_back(it->first, (*g)->value());
    }
  }
  return out;
}

void MetricsRegistry::PrintTable() const { ToTable().Print("metrics"); }

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, metric] : impl_->metrics) {
    if (auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      (*c)->Reset();
    } else if (auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      (*g)->Reset();
    } else {
      std::get<std::unique_ptr<Histogram>>(metric)->Reset();
    }
  }
}

namespace {

void DumpMetricsAtExit() {
  const char* path = std::getenv("PIPEDREAM_METRICS");
  if (path != nullptr && path[0] != '\0') {
    if (std::string(path) == "-") {
      MetricsRegistry::Get().PrintTable();
    } else {
      MetricsRegistry::Get().WriteJson(path);
    }
  }
  if (ParseEnvSwitch("PIPEDREAM_METRICS_TABLE", std::getenv("PIPEDREAM_METRICS_TABLE"))) {
    MetricsRegistry::Get().PrintTable();
  }
}

// Mid-run snapshot thread: every PIPEDREAM_METRICS_INTERVAL_S seconds, re-write the
// PIPEDREAM_METRICS file via the atomic-rename path. The thread is joined from this
// global's destructor, which runs before the atexit dump (atexit handlers run after
// static destructors registered earlier — both paths write the same file, so the final
// exit dump always wins).
struct MetricsEnvInit {
  MetricsEnvInit() {
    const char* path = std::getenv("PIPEDREAM_METRICS");
    const bool table =
        ParseEnvSwitch("PIPEDREAM_METRICS_TABLE", std::getenv("PIPEDREAM_METRICS_TABLE"));
    const bool have_path = path != nullptr && path[0] != '\0' && std::string(path) != "-";
    if ((path != nullptr && path[0] != '\0') || table) {
      MetricsRegistry::Get();  // construct before atexit so destruction never races the dump
      std::atexit(DumpMetricsAtExit);
    }
    const char* interval = std::getenv("PIPEDREAM_METRICS_INTERVAL_S");
    if (interval != nullptr && interval[0] != '\0' && have_path) {
      const double seconds = std::atof(interval);
      if (seconds > 0) {
        MetricsRegistry::Get();
        interval_ms_ = static_cast<int64_t>(seconds * 1e3);
        dump_path_ = path;
        dumper_ = std::thread([this] { PeriodicDumpLoop(); });
      }
    } else if (interval != nullptr && interval[0] != '\0') {
      PD_LOG(WARNING)
          << "PIPEDREAM_METRICS_INTERVAL_S set without a PIPEDREAM_METRICS file; ignored";
    }
  }

  ~MetricsEnvInit() {
    if (dumper_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
      }
      cv_.notify_all();
      dumper_.join();
    }
  }

  void PeriodicDumpLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      MetricsRegistry::Get().WriteJsonAtomic(dump_path_);
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t interval_ms_ = 0;
  std::string dump_path_;
  std::thread dumper_;
};
MetricsEnvInit g_metrics_env_init;

}  // namespace

}  // namespace obs
}  // namespace pipedream
