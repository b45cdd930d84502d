// Table 1: PipeDream's configuration and speedup over data parallelism for the paper's
// seven models on their cluster setups.
//
// Both systems are measured by the same event-driven cluster simulator: the PipeDream column
// simulates the optimizer's plan under 1F1B(-RR); the DP column simulates the
// single-replicated-stage plan under BSP gating. Epoch time scales as 1/throughput, and the
// statistical-efficiency experiments (bench_fig11_accuracy_vs_epoch) show weight stashing
// matches DP epoch-for-epoch, so the epoch-time speedup here is the TTA speedup analogue.
// The paper's reported TTA speedups are shown alongside for shape comparison.
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/pipedream.h"
#include "src/profile/model_zoo.h"
#include "src/simexec/pipeline_sim.h"

using namespace pipedream;

namespace {

struct Row {
  const char* model;
  const char* cluster_label;
  HardwareTopology topology;
  DeviceSpec device;
  const char* paper_config;
  const char* paper_tta;
};

// Simulated minibatches per pipeline run. At 128 the startup transient still lifts some
// rows (VGG-16 15-1 on Cluster-B(2) read 1,441 samples/s, against 1,170-1,210 at 256 to
// 8,192 minibatches); 4,096 sits on the long-run rate.
constexpr int64_t kSimMinibatches = 4096;

}  // namespace

int main() {
  std::printf("Reproduction of Table 1: PipeDream vs data parallelism (simulated cluster).\n");

  const Row rows[] = {
      {"VGG-16", "4x4 (A)", HardwareTopology::ClusterA(4), DeviceSpec::V100(), "15-1", "5.28x"},
      {"VGG-16", "2x8 (B)", HardwareTopology::ClusterB(2), DeviceSpec::V100(), "15-1", "2.46x"},
      {"ResNet-50", "4x4 (A)", HardwareTopology::ClusterA(4), DeviceSpec::V100(), "16", "1x"},
      {"ResNet-50", "2x8 (B)", HardwareTopology::ClusterB(2), DeviceSpec::V100(), "16", "1x"},
      {"AlexNet", "4x4 (A)", HardwareTopology::ClusterA(4), DeviceSpec::V100(), "15-1", "4.92x"},
      {"AlexNet", "2x8 (B)", HardwareTopology::ClusterB(2), DeviceSpec::V100(), "15-1", "2.04x"},
      {"GNMT-16", "1x4 (A)", HardwareTopology::ClusterA(1), DeviceSpec::V100(), "straight", "2.2x"},
      {"GNMT-16", "4x4 (A)", HardwareTopology::ClusterA(4), DeviceSpec::V100(), "straight", "2.92x"},
      {"GNMT-16", "2x8 (B)", HardwareTopology::ClusterB(2), DeviceSpec::V100(), "straight", "3.14x"},
      {"GNMT-8", "1x4 (A)", HardwareTopology::ClusterA(1), DeviceSpec::V100(), "straight", "1.5x"},
      {"GNMT-8", "3x4 (A)", HardwareTopology::ClusterA(3), DeviceSpec::V100(), "straight", "2.95x"},
      {"GNMT-8", "2x8 (B)", HardwareTopology::ClusterB(2), DeviceSpec::V100(), "16", "1x"},
      {"AWD-LM", "1x4 (A)", HardwareTopology::ClusterA(1), DeviceSpec::V100(), "straight", "4.25x"},
      {"S2VT", "4x1 (C)", HardwareTopology::ClusterC(4), DeviceSpec::TitanX(), "2-1-1", "3.01x"},
  };

  Table table({"model", "cluster", "config (ours)", "config (paper)", "PipeDream samples/s",
               "paper-config samples/s", "DP samples/s", "speedup (ours)",
               "TTA speedup (paper)"});

  for (const Row& row : rows) {
    const ModelProfile profile = MakeProfileByName(row.model, row.device);
    const int workers = row.topology.num_workers();

    const AutoPlanResult planned = AutoPlan(profile, row.topology);

    // DP baseline: the hierarchical wait-free-backprop BSP simulator (same machinery as
    // Figure 1). PipeDream's plan runs in the event-driven pipeline simulator; when the
    // optimizer picks vanilla DP the two systems are identical by construction.
    const DataParallelResult dp = SimulateDataParallelBsp(profile, row.topology, workers);
    double pd_throughput;
    if (planned.partition.plan.IsDataParallel(profile.num_layers())) {
      pd_throughput = dp.throughput_samples_per_sec;
    } else {
      SimOptions options;
      options.num_minibatches = kSimMinibatches;
      const SimResult pd =
          SimulatePipeline(profile, planned.partition.plan, row.topology, options);
      pd_throughput = pd.throughput_samples_per_sec;
    }
    // Also simulate the paper's own hand configuration for this row.
    std::string paper_throughput = "-";
    const int stages_for_straight = std::min(workers, profile.num_layers());
    const auto paper_plan = MakePlanFromConfigString(
        profile, std::string(row.paper_config) == "straight" ? "straight" : row.paper_config,
        std::string(row.paper_config) == "straight" ? stages_for_straight : workers);
    if (paper_plan.ok()) {
      if (paper_plan->IsDataParallel(profile.num_layers())) {
        paper_throughput = StrFormat("%.0f", dp.throughput_samples_per_sec);
      } else {
        SimOptions options;
        options.num_minibatches = kSimMinibatches;
        const SimResult sim = SimulatePipeline(profile, *paper_plan, row.topology, options);
        paper_throughput = StrFormat("%.0f", sim.throughput_samples_per_sec);
      }
    }

    const double speedup = pd_throughput / dp.throughput_samples_per_sec;
    table.AddRow({row.model, row.cluster_label,
                  planned.partition.plan.ConfigString(profile.num_layers()),
                  row.paper_config,
                  StrFormat("%.0f", pd_throughput), paper_throughput,
                  StrFormat("%.0f", dp.throughput_samples_per_sec),
                  StrFormat("%.2fx", speedup), row.paper_tta});
  }
  table.Print("Table 1 — PipeDream vs DP, epoch-time speedup (simulated)");

  std::printf(
      "\nShape checks: VGG/AlexNet/GNMT/AWD-LM show multi-x wins that grow on the slower\n"
      "Cluster-A interconnect; ResNet-50 gains ~nothing (DP is already optimal); per-stage\n"
      "configs replicate conv-heavy stages and keep dense layers unreplicated.\n");
  return 0;
}
