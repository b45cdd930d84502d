#include <gtest/gtest.h>

#include "src/planner/cost_model.h"

namespace pipedream {
namespace {

TEST(RingAllReduceTest, SingleWorkerIsFree) {
  EXPECT_DOUBLE_EQ(RingAllReduceBytes(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(SyncWallSeconds(1, 1 << 20, 1e9, /*shared_bus=*/false), 0.0);
}

TEST(RingAllReduceTest, MatchesPaperFormula) {
  // Each of the m workers moves 2(m-1)/m * bytes, so the ring's wall time is that over B.
  EXPECT_DOUBLE_EQ(RingAllReduceBytes(4, 1000000000), 2.0 * 3.0 * 1e9);
  EXPECT_NEAR(SyncWallSeconds(4, 1000000000, 1e9, /*shared_bus=*/false), 2.0 * 3.0 / 4.0,
              1e-9);
}

TEST(RingAllReduceTest, ApproachesTwoXBandwidthLimit) {
  const double t8 = SyncWallSeconds(8, 1000000000, 1e9, /*shared_bus=*/false);
  const double t64 = SyncWallSeconds(64, 1000000000, 1e9, /*shared_bus=*/false);
  EXPECT_LT(t8, t64);
  EXPECT_LT(t64, 2.0 + 1e-6);
}

TEST(RingAllReduceTest, SharedBusSerializesTheRing) {
  // The literal §3.1 term: every byte of the collective crosses the one shared medium.
  EXPECT_NEAR(SyncWallSeconds(5, 1000000000, 1e9, /*shared_bus=*/true), 2.0 * 4.0, 1e-9);
  EXPECT_NEAR(SyncWallSeconds(5, 1000000000, 1e9, /*shared_bus=*/true),
              5.0 * SyncWallSeconds(5, 1000000000, 1e9, /*shared_bus=*/false), 1e-9);
}

TEST(HierarchicalAllReduceTest, UsesBottleneckLevel) {
  const auto topo = HardwareTopology::ClusterA(2);
  // Within one server: PCIe governs. Across servers: Ethernet governs, so much slower.
  const std::vector<int> server = {0, 1, 2, 3};
  const std::vector<int> cluster = {0, 1, 2, 3, 4, 5, 6, 7};
  ASSERT_EQ(BottleneckLevel(topo, server), 1);
  ASSERT_EQ(BottleneckLevel(topo, cluster), 2);
  EXPECT_EQ(BottleneckLevel(topo, {3, 4}), 2);
  auto sync = [&](const std::vector<int>& workers) {
    const TopologyLevel& level = topo.level(BottleneckLevel(topo, workers));
    return SyncWallSeconds(static_cast<int>(workers.size()), 1 << 30,
                           level.effective_collective_bandwidth(), level.shared_bus);
  };
  EXPECT_GT(sync(cluster), sync(server) * 3.0);
}

TEST(BoundaryTransferTest, ActivationPlusGradientOverBandwidth) {
  EXPECT_NEAR(BoundaryRoundTripSeconds(1000000, 1e9), 2e-3, 1e-12);
  EXPECT_DOUBLE_EQ(BoundaryRoundTripSeconds(0, 1e9), 0.0);
}

}  // namespace
}  // namespace pipedream
