// The benchmark's entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-hash <hash>]
//
// Prints human-readable report lines, one `provenance {...}` line, and, last, the result
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics, traced runs the per-layer metrics; a traced run also writes a Chrome trace.
// Exits 1 when an output check fails and 2 on a usage or environment error.
#include <unistd.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

extern char** environ;

namespace perfbench {
namespace {

std::map<std::string, std::string>& ProvenanceMap() {
  static std::map<std::string, std::string> map;
  return map;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <train_vgg_3-1|train_mlp_socket|"
               "serve_mlp_socket|plan_sim_zoo> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

// Keeps exactly the metrics of the run's kind. A per-layer metric the workload has no layer
// for (e.g. the serving ladder on a training workload) reads 0.
bool Finalize(bool trace, Result* result) {
  std::map<std::string, Metric> kept;
  bool ok = true;
  const auto take = [&](const MetricSpec& spec, bool fill_zero) {
    auto it = result->metrics.find(spec.name);
    if (it == result->metrics.end()) {
      if (!fill_zero) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", spec.name.c_str());
        ok = false;
        return;
      }
      kept[spec.name] = Metric{0.0, spec.unit};
      return;
    }
    if (it->second.unit != spec.unit || !ValidMetricName(spec.name)) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, expected %s\n",
                   spec.name.c_str(), it->second.unit.c_str(), spec.unit.c_str());
      ok = false;
    }
    kept[spec.name] = it->second;
  };
  if (trace) {
    for (const MetricSpec& spec : PerLayerMetrics()) take(spec, /*fill_zero=*/true);
  } else {
    for (const MetricSpec& spec : EndToEndMetrics()) take(spec, /*fill_zero=*/false);
  }
  result->metrics = std::move(kept);
  return ok;
}

int Main(int argc, char** argv) {
  // Each PIPEDREAM_* variable overrides workload options inside library code (transport,
  // schedule, tracing, pool size, ...), so an inherited one would silently change the run.
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "PIPEDREAM_", 10) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set in the environment\n",
                   *env);
      return 2;
    }
  }

  RunConfig config;
  std::string commit = "unknown";
  std::string source_hash = "unknown";
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || config.trace;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-hash") {
      source_hash = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_trace) {
    return Usage("--workload and --trace are required");
  }
  if (!(config.seconds >= 1.0 && config.seconds <= 120.0)) {
    return Usage("--seconds must be within [1, 120]");
  }
  void (*run)(const RunConfig&, Result*) = nullptr;
  if (config.workload == "train_vgg_3-1" || config.workload == "train_mlp_socket") {
    run = RunTraining;
  } else if (config.workload == "serve_mlp_socket") {
    run = RunServing;
  } else if (config.workload == "plan_sim_zoo") {
    run = RunPlanSim;
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  // Pin the kernel pool to the machine before its first use.
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  setenv("PIPEDREAM_NUM_THREADS", std::to_string(nproc).c_str(), 1);

  const std::string base = ".bench_build/perfbench-out";
  config.scratch_dir = base + "/scratch-" + config.workload + "-" + std::to_string(getpid());
  config.trace_path = base + "/trace-" + config.workload + ".json";
  std::filesystem::create_directories(config.scratch_dir);

  NoteProvenance("commit", commit);
  NoteProvenance("source_sha256", source_hash);
  NoteProvenance("nproc", std::to_string(nproc));
  NoteProvenance("simd_isa", pipedream::SimdKernelIsa());
  NoteProvenance("kernel_variant",
                 pipedream::KernelVariantName(pipedream::ActiveKernelVariant()));
  NoteProvenance("global_threads", std::to_string(pipedream::ThreadPool::GlobalThreads()));
  NoteProvenance("build_type", PERFBENCH_BUILD_TYPE);
  NoteProvenance("cxx_flags", PERFBENCH_CXX_FLAGS);
  NoteProvenance("kernel_flags", PERFBENCH_KERNEL_FLAGS);
  NoteProvenance("compiler", PERFBENCH_COMPILER);
  NoteProvenance("workload", config.workload);
  NoteProvenance("seed", std::to_string(config.seed));
  NoteProvenance("trace", config.trace ? "1" : "0");

  Result result;
  run(config, &result);
  std::error_code ignored;
  std::filesystem::remove_all(config.scratch_dir, ignored);

  if (!Finalize(config.trace, &result)) {
    result.correct = false;
  }
  if (result.attempted < 1) {
    result.correct = false;
    result.attempted = 1;
    result.failed = std::max<int64_t>(result.failed, 1);
  }
  if (result.failed > 0) {
    result.correct = false;
  }
  Say("error_rate %.6g (%lld failed of %lld attempted)\n",
      static_cast<double>(result.failed) / static_cast<double>(result.attempted),
      static_cast<long long>(result.failed), static_cast<long long>(result.attempted));
  std::string prov = "provenance {";
  bool first = true;
  for (const auto& [key, value] : ProvenanceMap()) {
    prov += (first ? "\"" : ", \"") + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
    first = false;
  }
  Say("%s}\n", prov.c_str());
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace

void NoteProvenance(const std::string& key, const std::string& value) {
  ProvenanceMap()[key] = value;
}

void Say(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
