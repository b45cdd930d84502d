// The benchmark's workloads and the per-layer probe suite they share.
//
// Every workload runs against the library's public API only. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) arms the trace ring, measures the
// workload again, derives the per-layer metrics from the recorded spans and counters, runs
// the probe suite, and writes a Chrome trace.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "src/runtime/transport.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // checkpoints and other per-run files; removed at exit
  std::string trace_path;   // Chrome trace written by a traced run
};

// An untraced run sets up at least kSetupRepeats times, and more until kSetupMinSeconds have
// been spent, so that the median of a quick set-up rests on enough samples. setup_s is the
// median.
inline constexpr int kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 1.0;
inline bool MoreSetUps(const std::vector<double>& setup_seconds) {
  double spent = 0.0;
  for (const double s : setup_seconds) spent += s;
  return setup_seconds.size() < kSetupRepeats || spent < kSetupMinSeconds;
}

void RunTraining(const RunConfig& config, Result* result);
void RunServing(const RunConfig& config, Result* result);
void RunPlanSim(const RunConfig& config, Result* result);

// Isolated timed calls into each layer's public function. Every traced run measures the
// whole suite, so each workload's per-layer table is complete; the shapes are those of the
// workload that exercises the layer (see README.md). Only the transport hop uses the
// calling workload's own transport and boundary shape.
struct ProbeOptions {
  pipedream::TransportKind hop_transport = pipedream::TransportKind::kUnixSocket;
  std::vector<int64_t> hop_shape = {256, 64};
  std::string scratch_dir;
};
void RunProbes(const ProbeOptions& options, Result* result);

// Median seconds per call of `fn`, over `rounds` rounds lasting about `min_seconds` in all.
double TimePerCall(const std::function<void()>& fn, double min_seconds = 0.15,
                   int rounds = 5);

// Adds op_p50_ms from per-operation latencies and prints the tail with its percentile and
// sample count. The tail is not a metric: under the "10 samples beyond" rule it rests on a
// handful of extreme samples and moved 14-67% between runs on the reference VM. With
// `window` > 0 the printed tail is the median over whole windows of that many seconds
// (MedianWindowTail), `op_times` giving each operation's start in seconds from the phase
// start; otherwise it is taken over all operations.
void SetLatencyMetrics(const std::vector<double>& op_seconds,
                       const std::vector<double>& op_times, double window, Result* result);

// Adds setup_s, the median of the set-up times, and prints them all.
void SetSetupMetric(const std::vector<double>& setup_seconds, Result* result);

// Median of WindowRates(times, 0, wall, window), with a report line giving the spread of
// the windows (`what` names the events, e.g. "requests").
double MedianRate(const char* what, const std::vector<double>& times, double wall,
                  double window);

// printf to stdout, for the human-readable lines printed before the result line.
void Say(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Records one key of the run's provenance line (thread counts, plan config, ...).
void NoteProvenance(const std::string& key, const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
