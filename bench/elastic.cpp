// Elastic re-planning benchmark: what losing a worker costs a skewed 4-worker pipeline
// under three policies — restart-in-place, degraded-forever (eject the replica and never
// re-plan), and elastic re-planning (re-partition over the survivors' speeds) — plus the
// measured wall-clock latency of a real ElasticTrainer re-plan + state migration.
//
// Usage: bench_elastic [--json] [--smoke]
//   --json    emit the machine-readable report stored in BENCH_elastic.json
//   --smoke   shrink the sweep for CI (ctest -L elastic)
//
// The policy sweep is deterministic virtual time from the discrete-event simulator; the
// migration-latency section is measured wall clock from the threaded runtime.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>
#include <unistd.h>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/optim/sgd.h"
#include "src/planner/plan.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/elastic.h"
#include "src/runtime/fault.h"
#include "src/sim/topology.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {
namespace {

ModelProfile UniformProfile(int layers, double fwd_seconds = 0.010,
                            int64_t activation_bytes = 1 << 10,
                            int64_t param_bytes = 1 << 10) {
  ModelProfile profile;
  profile.model_name = "uniform";
  profile.minibatch_size = 32;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = fwd_seconds;
    layer.bwd_seconds = 2.0 * fwd_seconds;
    layer.activation_bytes = activation_bytes;
    layer.param_bytes = param_bytes;
    profile.layers.push_back(layer);
  }
  return profile;
}

struct PolicyRow {
  std::string scenario;
  double replan_seconds = 0.0;      // charged partitioner + migration latency (sim input)
  double clean_throughput = 0.0;    // samples/s before any failure
  double post_throughput = 0.0;     // steady state after the policy resolved the failure
  double recovered_fraction = 0.0;  // post / clean
  double makespan_seconds = 0.0;
  int replans = 0;
};

PolicyRow RunPolicy(const std::string& scenario, const ModelProfile& profile,
                    const PipelinePlan& plan, const HardwareTopology& topo,
                    SimOptions options, double clean_throughput) {
  const SimResult result = SimulatePipeline(profile, plan, topo, options);
  PolicyRow row;
  row.scenario = scenario;
  row.replan_seconds = options.fault.replan ? options.fault.replan_seconds : 0.0;
  row.clean_throughput = clean_throughput;
  row.post_throughput = result.post_recovery_throughput_samples_per_sec;
  row.recovered_fraction =
      clean_throughput > 0.0 ? row.post_throughput / clean_throughput : 0.0;
  row.makespan_seconds = result.total_seconds;
  row.replans = result.replans;
  return row;
}

struct MigrationRow {
  int64_t epoch_length = 0;
  double replan_wall_seconds = 0.0;        // measured partition + checkpoint + rebuild
  double degraded_minibatches_per_sec = 0.0;  // kill epoch: detection + rollback
                                              // stall + degraded finish
  double replanned_minibatches_per_sec = 0.0;  // epoch throughput after the re-plan
  int plan_generations = 0;
};

// Kills one replicated-stage worker on a real 4-worker heterogeneous ElasticTrainer and
// measures the re-plan + migration wall clock plus per-epoch throughput either side of it.
MigrationRow MeasureMigration(int epochs_after) {
  const Dataset data = MakeGaussianMixture(3, 6, 32, 0.3, 17);
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16, 12, 8}, 3, &rng);
  // Five heavy layers + cheap tail (see tests/runtime/elastic_test.cc): the skewed optimum
  // replicates the fast trio and the kill target is deterministic.
  ModelProfile profile = UniformProfile(static_cast<int>(model->size()));
  profile.minibatch_size = 4;
  for (size_t i = 5; i < profile.layers.size(); ++i) {
    profile.layers[i].fwd_seconds = 0.004;
    profile.layers[i].bwd_seconds = 0.008;
  }

  const auto dir = std::filesystem::temp_directory_path() /
                   ("pd_bench_elastic_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  CheckpointManager manager(dir.string());
  ElasticOptions options;
  options.recovery.heartbeat_timeout_ms = 1000;
  options.recovery.progress_timeout_ms = 400;
  options.recovery.worker_tick_ms = 5;
  options.recovery.watchdog_poll_ms = 2;
  ElasticTrainer elastic(*model, profile, &loss, sgd, &data, /*batch_size=*/4, /*seed=*/5,
                         {{1.0}, {1.0}, {1.0}, {0.5}}, &manager, options);

  MigrationRow row;
  row.epoch_length = elastic.epoch_length();
  FaultPlan fault_plan;
  fault_plan.events.push_back({FaultKind::kKillWorker, /*stage=*/0, /*replica=*/1,
                               /*minibatch=*/elastic.epoch_length() + 1, WorkType::kForward,
                               0.0});
  FaultInjector injector(fault_plan);
  elastic.SetFaultInjector(&injector);

  elastic.TrainEpoch();                              // clean
  const EpochStats dead = elastic.TrainEpoch();      // kill + degraded finish
  row.degraded_minibatches_per_sec =
      dead.wall_seconds > 0.0 ? static_cast<double>(dead.minibatches) / dead.wall_seconds
                              : 0.0;
  double replanned_mb = 0.0, replanned_s = 0.0;
  for (int e = 0; e < epochs_after; ++e) {           // re-plan fires before the first one
    const EpochStats stats = elastic.TrainEpoch();
    replanned_mb += static_cast<double>(stats.minibatches);
    replanned_s += stats.wall_seconds;
  }
  row.replan_wall_seconds = elastic.last_replan_seconds();
  row.replanned_minibatches_per_sec = replanned_s > 0.0 ? replanned_mb / replanned_s : 0.0;
  row.plan_generations = static_cast<int>(elastic.plan_generation()) + 1;
  std::filesystem::remove_all(dir);
  return row;
}

void PrintHuman(const std::vector<PolicyRow>& rows, const MigrationRow& migration) {
  std::printf("%-30s %10s %12s %12s %10s %10s %8s\n", "scenario", "replan_s", "clean_tput",
              "post_tput", "recovered", "makespan", "replans");
  for (const PolicyRow& r : rows) {
    std::printf("%-30s %10.2f %12.1f %12.1f %9.1f%% %10.2f %8d\n", r.scenario.c_str(),
                r.replan_seconds, r.clean_throughput, r.post_throughput,
                100.0 * r.recovered_fraction, r.makespan_seconds, r.replans);
  }
  std::printf("\nmeasured migration (threaded runtime, 4 workers, kill 1):\n");
  std::printf("  replan+migrate wall: %.1f ms\n", 1e3 * migration.replan_wall_seconds);
  std::printf("  kill+degraded epoch: %.1f minibatches/s\n",
              migration.degraded_minibatches_per_sec);
  std::printf("  re-planned epochs:   %.1f minibatches/s\n",
              migration.replanned_minibatches_per_sec);
}

void PrintJson(const std::vector<PolicyRow>& rows, const MigrationRow& migration) {
  std::printf("{\n");
  std::printf(
      "  \"note\": \"failure policies on a skewed 4-worker cluster (speeds 1/1/1/0.5): "
      "degraded-forever vs elastic re-planning; sim rows are deterministic virtual time, "
      "migration row is measured wall clock\",\n");
  std::printf("  \"policy_sweep\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& r = rows[i];
    std::printf(
        "    {\"scenario\": \"%s\", \"replan_seconds\": %.3f, \"clean_throughput\": %.2f, "
        "\"post_recovery_throughput\": %.2f, \"recovered_fraction\": %.4f, "
        "\"makespan_seconds\": %.3f, \"replans\": %d}%s\n",
        r.scenario.c_str(), r.replan_seconds, r.clean_throughput, r.post_throughput,
        r.recovered_fraction, r.makespan_seconds, r.replans,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf(
      "  \"measured_migration\": {\"epoch_length\": %lld, \"replan_wall_seconds\": %.6f, "
      "\"degraded_minibatches_per_sec\": %.2f, \"replanned_minibatches_per_sec\": %.2f, "
      "\"plan_generations\": %d}\n",
      static_cast<long long>(migration.epoch_length), migration.replan_wall_seconds,
      migration.degraded_minibatches_per_sec, migration.replanned_minibatches_per_sec,
      migration.plan_generations);
  std::printf("}\n");
}

int Main(int argc, char** argv) {
  bool json = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto profile = UniformProfile(8);
  const auto plan = MakePlanFromShape({{4, 2}, {4, 2}});
  const auto topo = HardwareTopology::Flat(4, 1e12);
  SimOptions base;
  base.num_minibatches = smoke ? 200 : 400;
  base.worker_speeds = {1.0, 1.0, 1.0, 0.5};
  const double clean_tput =
      SimulatePipeline(profile, plan, topo, base).throughput_samples_per_sec;

  base.fault.enabled = true;
  base.fault.stage = 0;
  base.fault.replica = 1;
  base.fault.at_minibatch = base.num_minibatches / 2 + 1;  // replica 1 owns odd minibatches
  base.fault.detection_seconds = 0.5;
  base.fault.restart_seconds = 2.0;
  base.fault.checkpoint_every = 100;

  std::vector<PolicyRow> rows;
  {
    SimOptions options = base;  // restart-in-place: the dead device respawns
    rows.push_back(RunPolicy("restart-in-place", profile, plan, topo, options, clean_tput));
  }
  {
    SimOptions options = base;
    options.fault.degraded = true;
    rows.push_back(RunPolicy("degraded-forever", profile, plan, topo, options, clean_tput));
  }
  for (const double replan_seconds : smoke ? std::vector<double>{0.5}
                                           : std::vector<double>{0.1, 0.5, 2.0}) {
    SimOptions options = base;
    options.fault.replan = true;
    options.fault.replan_seconds = replan_seconds;
    rows.push_back(RunPolicy("elastic-replan", profile, plan, topo, options, clean_tput));
  }

  const MigrationRow migration = MeasureMigration(/*epochs_after=*/smoke ? 1 : 3);

  if (json) {
    PrintJson(rows, migration);
  } else {
    PrintHuman(rows, migration);
  }
  return 0;
}

}  // namespace
}  // namespace pipedream

int main(int argc, char** argv) { return pipedream::Main(argc, argv); }
