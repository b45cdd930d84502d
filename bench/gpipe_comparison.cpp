// §5.4 inter-batch comparison: GNMT-16 on 16 workers under PipeDream's 1F1B vs our GPipe
// implementation with (a) pipeline depth = NOAM and (b) the largest depth that fits in GPU
// memory. The paper reports GPipe slowdowns of 55%/71% (depth = NOAM) and 35%/42% (max
// depth) on Clusters A/B, driven by pipeline flushes (and recompute overhead at max depth).
#include <cstdio>

#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/planner/plan.h"
#include "src/profile/model_zoo.h"
#include "src/simexec/pipeline_sim.h"

using namespace pipedream;

namespace {

// Largest GPipe round size whose boundary-activation stash fits device memory alongside the
// stage's weights and one full activation set (GPipe discards + recomputes activations).
int MaxMicrobatchesForMemory(const ModelProfile& profile, const PipelinePlan& plan,
                             int64_t device_memory) {
  int best = 1;
  for (int m = 1; m <= 64; ++m) {
    bool fits = true;
    for (int s = 0; s < plan.num_stages(); ++s) {
      const StageAssignment& stage = plan.stage(s);
      const int64_t weights = profile.ParamBytes(stage.begin_layer, stage.end_layer);
      const int64_t full_acts = profile.ActivationBytes(stage.begin_layer, stage.end_layer);
      const int64_t boundary =
          s > 0 ? profile.BoundaryActivationBytes(stage.begin_layer - 1) : 0;
      const int64_t bytes = 2 * weights + boundary * m + full_acts;
      if (bytes > device_memory) {
        fits = false;
        break;
      }
    }
    if (fits) {
      best = m;
    }
  }
  return best;
}

void Panel(const char* label, const HardwareTopology& topo) {
  const ModelProfile profile = MakeGnmtProfile(16);
  // GPipe "does not specify an algorithm for partitioning; we use the same partitions as
  // PipeDream" (§5.4) — a straight 16-stage pipeline for GNMT-16.
  const PipelinePlan plan = MakeBalancedStraightPlan(profile, 16);
  const int noam = plan.Noam();
  const int max_depth = MaxMicrobatchesForMemory(profile, plan, DeviceSpec::V100().memory_bytes);

  SimOptions pd_options;
  pd_options.num_minibatches = 192;
  const SimResult pd = SimulatePipeline(profile, plan, topo, pd_options);

  auto run_gpipe = [&](int m, bool recompute) {
    SimOptions options;
    options.schedule = ScheduleKind::kGPipe;
    options.gpipe_microbatches = m;
    options.recompute = recompute;
    options.num_minibatches = (192 / m) * m;
    return SimulatePipeline(profile, plan, topo, options);
  };
  const SimResult gpipe_noam = run_gpipe(noam, false);
  // At max depth GPipe must discard + recompute activations (extra forward work on backward).
  const SimResult gpipe_max = run_gpipe(max_depth, true);

  Table table({"system", "pipeline depth", "samples/s", "slowdown vs PipeDream"});
  table.AddRow({"PipeDream 1F1B", StrFormat("%d (NOAM)", noam),
                StrFormat("%.0f", pd.throughput_samples_per_sec), "-"});
  table.AddRow({"GPipe", StrFormat("%d (= NOAM)", noam),
                StrFormat("%.0f", gpipe_noam.throughput_samples_per_sec),
                StrFormat("%.0f%%", 100.0 * (1.0 - gpipe_noam.throughput_samples_per_sec /
                                                       pd.throughput_samples_per_sec))});
  table.AddRow({"GPipe + recompute", StrFormat("%d (max for 16 GB)", max_depth),
                StrFormat("%.0f", gpipe_max.throughput_samples_per_sec),
                StrFormat("%.0f%%", 100.0 * (1.0 - gpipe_max.throughput_samples_per_sec /
                                                       pd.throughput_samples_per_sec))});
  table.Print(StrFormat("§5.4 — GNMT-16, 16 workers, %s (paper: 55%%/71%% and 35%%/42%%)",
                        label));
}

}  // namespace

int main() {
  std::printf("Reproduction of §5.4: PipeDream vs GPipe (GNMT-16, 16 workers).\n");
  Panel("Cluster-A", HardwareTopology::ClusterA(4));
  Panel("Cluster-B", HardwareTopology::ClusterB(2));
  std::printf("\nShape checks: GPipe at depth = NOAM loses heavily to pipeline flushes; a\n"
              "deeper pipeline amortizes flushes but pays activation recomputation, leaving a\n"
              "smaller-but-substantial slowdown — the two regimes the paper quantifies.\n");
  return 0;
}
