// Figure 4: PipeDream's 1F1B schedule with 4 workers — startup phase admits NOAM = 4
// minibatches, then every worker alternates forward/backward with no flushes and negligible
// idle time, even though backward passes take twice as long as forwards.
#include <cstdio>

#include "bench/timeline_util.h"
#include "src/common/sim_time.h"
#include "src/simexec/pipeline_sim.h"

using namespace pipedream;

int main() {
  std::printf("Reproduction of Figure 4: PipeDream 1F1B, 4 workers (startup + steady state).\n\n");
  const ModelProfile profile = UniformTimelineProfile(4);
  const PipelinePlan plan = MakeStraightPlan(4, {1, 2, 3});
  std::printf("NOAM = %d (== worker count for a straight pipeline)\n\n", plan.Noam());

  SimOptions options;
  options.num_minibatches = 12;
  options.record_trace = true;
  const auto topo = HardwareTopology::Flat(4, 1e12, 0.0);
  const SimResult result = SimulatePipeline(profile, plan, topo, options);

  std::printf("%s\n", result.trace.RenderAscii(SimTime::Millis(10), 4, 60).c_str());
  for (int w = 0; w < 4; ++w) {
    std::printf("worker %d utilization: %.0f%%\n", w,
                100.0 * result.worker_utilization[static_cast<size_t>(w)]);
  }
  const Status valid = result.trace.Validate(plan);
  std::printf("\nschedule validity (dependencies, affinity, exclusivity): %s\n",
              valid.ToString().c_str());
  std::printf("steady state: each worker strictly alternates one forward (1 unit) with one\n"
              "backward (2 units); no pipeline flush ever occurs.\n");
  return 0;
}
