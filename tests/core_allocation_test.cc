// Unit tests for replica-allocation math (Section 2.4).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/allocation.h"

namespace tashkent {
namespace {

GroupLoad G(int replicas, double cpu, double disk) {
  GroupLoad g;
  g.replicas = replicas;
  g.cpu = cpu;
  g.disk = disk;
  return g;
}

TEST(GroupLoad, MaxOfCpuAndDisk) {
  EXPECT_DOUBLE_EQ(G(1, 0.45, 0.10).Load(), 0.45);
  EXPECT_DOUBLE_EQ(G(1, 0.10, 0.45).Load(), 0.45);
}

TEST(GroupLoad, PaperFutureLoadExample) {
  // Section 2.4: three replicas averaging 46 -> removing one yields
  // 46 * 3/2 = 69.
  const GroupLoad g = G(3, 0.46, 0.09);
  EXPECT_NEAR(g.FutureLoadIfRemoved(), 0.69, 1e-9);
}

TEST(GroupLoad, SingleReplicaNeverDonor) {
  EXPECT_TRUE(std::isinf(G(1, 0.2, 0.1).FutureLoadIfRemoved()));
}

TEST(GroupLoad, PaperDonorSelectionExample) {
  // Section 2.4: group A: 2 replicas at 20; group B: 6 replicas at 25.
  // Future loads if one replica removed: 40 vs 30 -> take from B even though
  // its current load is higher.
  const GroupLoad a = G(2, 0.20, 0.0);
  const GroupLoad b = G(6, 0.25, 0.0);
  EXPECT_NEAR(a.FutureLoadIfRemoved(), 0.40, 1e-9);
  EXPECT_NEAR(b.FutureLoadIfRemoved(), 0.30, 1e-9);

  // Most loaded is a hot third group; donor must be B (index 2).
  const std::vector<GroupLoad> groups = {G(3, 0.9, 0.1), a, b};
  const auto move = PickRebalanceMove(groups);
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->from, 2u);
  EXPECT_EQ(move->to, 0u);
}

// The examples below are worked at the paper's thresholds.
static_assert(kHysteresis == 1.25);
static_assert(kMergeThreshold == 0.35);

TEST(Allocation, HysteresisBlocksSmallImbalance) {
  // Most loaded 0.50 vs donor future 0.45: 0.50 < 1.25*0.45 -> no move.
  const std::vector<GroupLoad> groups = {G(2, 0.50, 0.0), G(3, 0.30, 0.0)};
  EXPECT_FALSE(PickRebalanceMove(groups).has_value());
}

TEST(Allocation, MoveWhenBeyondHysteresis) {
  const std::vector<GroupLoad> groups = {G(2, 0.90, 0.0), G(3, 0.20, 0.0)};
  // Donor future load = 0.30; 0.90 >= 1.25 * 0.30.
  const auto move = PickRebalanceMove(groups);
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->from, 1u);
  EXPECT_EQ(move->to, 0u);
}

TEST(Allocation, NoDonorWhenAllOthersSingle) {
  const std::vector<GroupLoad> groups = {G(1, 0.95, 0.0), G(1, 0.05, 0.0)};
  EXPECT_FALSE(PickRebalanceMove(groups).has_value());
}

TEST(FastTargets, PaperBalanceEquationExample) {
  // Section 2.4: M: 3 replicas at 70%, N: 7 replicas at 10%, 10 total.
  // Exact solution m=7.5, n=2.5; conservative rounding gives 7 and 3.
  const std::vector<GroupLoad> groups = {G(3, 0.70, 0.0), G(7, 0.10, 0.0)};
  const auto targets = ComputeFastTargets(groups, 10);
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 7);
  EXPECT_EQ(targets[1], 3);
}

TEST(FastTargets, SumEqualsTotalAndMinOne) {
  const std::vector<GroupLoad> groups = {G(4, 0.9, 0.0), G(4, 0.02, 0.0), G(4, 0.3, 0.0),
                                         G(4, 0.0, 0.0)};
  const auto targets = ComputeFastTargets(groups, 16);
  int sum = 0;
  for (int t : targets) {
    EXPECT_GE(t, 1);
    sum += t;
  }
  EXPECT_EQ(sum, 16);
}

TEST(FastTargets, ZeroDemandSpreadsEvenly) {
  const std::vector<GroupLoad> groups = {G(1, 0, 0), G(1, 0, 0), G(1, 0, 0)};
  const auto targets = ComputeFastTargets(groups, 9);
  EXPECT_EQ(targets, (std::vector<int>{3, 3, 3}));
}

TEST(FastTargets, FewerReplicasThanGroups) {
  const std::vector<GroupLoad> groups = {G(1, 0.5, 0), G(1, 0.5, 0), G(1, 0.5, 0)};
  const auto targets = ComputeFastTargets(groups, 2);
  int sum = 0;
  for (int t : targets) {
    sum += t;
  }
  EXPECT_EQ(sum, 2);
}

TEST(FastTargets, ProportionalToDemand) {
  // Demands 8:2 over 10 replicas -> 8 and 2.
  const std::vector<GroupLoad> groups = {G(4, 1.0, 0.0), G(4, 0.25, 0.0)};
  const auto targets = ComputeFastTargets(groups, 10);
  EXPECT_EQ(targets[0], 8);
  EXPECT_EQ(targets[1], 2);
}

TEST(ShouldFastReallocate, TriggersOnLargeShift) {
  // Current allocation is far from the balance targets.
  const std::vector<GroupLoad> groups = {G(2, 0.95, 0.0), G(8, 0.05, 0.0)};
  EXPECT_TRUE(ShouldFastReallocate(groups, 10));
}

TEST(ShouldFastReallocate, QuietWhenBalanced) {
  const std::vector<GroupLoad> groups = {G(5, 0.50, 0.0), G(5, 0.50, 0.0)};
  EXPECT_FALSE(ShouldFastReallocate(groups, 10));
}

TEST(Merge, PicksTwoLowestSingleReplicaGroups) {
  const std::vector<GroupLoad> groups = {G(1, 0.10, 0.0), G(1, 0.05, 0.0), G(1, 0.30, 0.0),
                                         G(4, 0.90, 0.0)};
  const auto pick = PickMergeCandidates(groups);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->first, 1u);   // lowest
  EXPECT_EQ(pick->second, 0u);  // second lowest
}

TEST(Merge, RequiresTwoCandidates) {
  const std::vector<GroupLoad> groups = {G(1, 0.10, 0.0), G(1, 0.80, 0.0), G(2, 0.20, 0.0)};
  // Only one group qualifies (single replica and below threshold).
  EXPECT_FALSE(PickMergeCandidates(groups).has_value());
}

TEST(Merge, MultiReplicaGroupsNotCandidates) {
  const std::vector<GroupLoad> groups = {G(2, 0.05, 0.0), G(2, 0.02, 0.0)};
  EXPECT_FALSE(PickMergeCandidates(groups).has_value());
}

}  // namespace
}  // namespace tashkent
