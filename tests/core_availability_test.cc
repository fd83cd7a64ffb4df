// Unit tests for availability constraints under update filtering (Section 3).
#include <gtest/gtest.h>

#include "src/core/availability.h"

namespace tashkent {
namespace {

using Tables = TableMask;

TEST(Availability, OkWhenEveryGroupHasEnoughSubscribers) {
  const std::vector<Tables> group_tables = {{10, 11}, {12}};
  std::map<ReplicaId, Tables> subs = {
      {0, {10, 11}}, {1, {10, 11}}, {2, {12}}, {3, {12}}};
  const auto report = CheckAvailability(group_tables, subs, 2);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.under_replicated_groups.empty());
  EXPECT_TRUE(report.under_replicated_tables.empty());
}

TEST(Availability, DetectsUnderReplicatedGroup) {
  const std::vector<Tables> group_tables = {{10}, {11}};
  std::map<ReplicaId, Tables> subs = {{0, {10}}, {1, {11}}, {2, {11}}};
  const auto report = CheckAvailability(group_tables, subs, 2);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.under_replicated_groups.size(), 1u);
  EXPECT_EQ(report.under_replicated_groups[0], 0u);
  ASSERT_EQ(report.under_replicated_tables.size(), 1u);
  EXPECT_EQ(report.under_replicated_tables[0], 10u);
}

TEST(Availability, PartialSubscriptionDoesNotCount) {
  // A replica subscribing to only half a group's tables cannot run its
  // transactions.
  const std::vector<Tables> group_tables = {{10, 11}};
  std::map<ReplicaId, Tables> subs = {{0, {10, 11}}, {1, {10}}};
  const auto report = CheckAvailability(group_tables, subs, 2);
  EXPECT_FALSE(report.ok);
}

TEST(Standbys, NoDeficitNoStandbys) {
  const std::vector<std::vector<ReplicaId>> group_replicas = {{0, 1}, {2, 3}};
  const std::vector<Tables> group_tables = {{10}, {11}};
  EXPECT_TRUE(PlanStandbys(group_replicas, group_tables, 2).empty());
}

TEST(Standbys, SingleReplicaGroupGetsOneStandby) {
  const std::vector<std::vector<ReplicaId>> group_replicas = {{0}, {1, 2, 3}};
  const std::vector<Tables> group_tables = {{10, 11}, {12}};
  const auto extra = PlanStandbys(group_replicas, group_tables, 2);
  ASSERT_EQ(extra.size(), 1u);
  const auto& [replica, tables] = *extra.begin();
  EXPECT_NE(replica, 0u);  // standby is not the serving replica
  EXPECT_EQ(tables, (Tables{10, 11}));
}

TEST(Standbys, StandbysMakeAvailabilityCheckPass) {
  const std::vector<std::vector<ReplicaId>> group_replicas = {{0}, {1}, {2, 3}};
  const std::vector<Tables> group_tables = {{10}, {11}, {12}};
  std::map<ReplicaId, Tables> subs = {{0, {10}}, {1, {11}}, {2, {12}}, {3, {12}}};
  EXPECT_FALSE(CheckAvailability(group_tables, subs, 2).ok);

  for (const auto& [replica, tables] : PlanStandbys(group_replicas, group_tables, 2)) {
    subs[replica].OrWith(tables);
  }
  EXPECT_TRUE(CheckAvailability(group_tables, subs, 2).ok);
}

TEST(Standbys, SpreadsAcrossReplicas) {
  // Three single-replica groups needing standbys; the same replica should not
  // absorb all of them when alternatives exist.
  const std::vector<std::vector<ReplicaId>> group_replicas = {{0}, {1}, {2}, {3, 4, 5}};
  const std::vector<Tables> group_tables = {{10}, {11}, {12}, {13}};
  const auto extra = PlanStandbys(group_replicas, group_tables, 2);
  EXPECT_GE(extra.size(), 2u);
}

TEST(Standbys, HigherMinCopiesAddsMore) {
  const std::vector<std::vector<ReplicaId>> group_replicas = {{0}, {1, 2, 3, 4}};
  const std::vector<Tables> group_tables = {{10}, {11}};
  const auto extra = PlanStandbys(group_replicas, group_tables, 3);
  // Group 0 needs two standbys.
  size_t subscribers = 0;
  for (const auto& [replica, tables] : extra) {
    if (tables.Test(10)) {
      ++subscribers;
    }
  }
  EXPECT_EQ(subscribers, 2u);
}

}  // namespace
}  // namespace tashkent
