// Unit tests for load balancing policies: RoundRobin, LeastConnections,
// LARD, and the MALB dispatcher mechanics (grouping, allocation moves,
// merging/splitting, filtering installation).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/balancer/lard.h"
#include "src/balancer/malb.h"
#include "src/balancer/simple.h"
#include "src/core/availability.h"
#include "src/core/working_set.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

// Small fixture wiring N replicas + proxies around a tiny schema.
class BalancerTest : public ::testing::Test {
 protected:
  void Build(size_t n, Bytes memory = 512 * kMiB) {
    table_ = schema_.AddTable("t", MiB(4));
    ReplicaConfig rc;
    rc.memory = memory;
    rc.reserved = 70 * kMiB;
    for (ReplicaId r = 0; r < n; ++r) {
      replicas_.push_back(std::make_unique<Replica>(&sim_, &schema_, r, rc, Rng(r + 1)));
      proxies_.push_back(std::make_unique<Proxy>(&sim_, replicas_.back().get(), &certifier_));
    }
    read_.name = "read";
    read_.id = registry_.Add([this] {
      TxnType t;
      t.name = "read";
      t.plan.steps = {Random(table_, 1)};
      return t;
    }());
  }

  BalancerContext Ctx() {
    BalancerContext ctx;
    ctx.sim = &sim_;
    ctx.registry = &registry_;
    ctx.schema = &schema_;
    for (auto& p : proxies_) {
      ctx.proxies.push_back(p.get());
    }
    return ctx;
  }

  Simulator sim_;
  Schema schema_;
  TxnTypeRegistry registry_;
  RelationId table_ = 0;
  Certifier certifier_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  TxnType read_;
};

TEST_F(BalancerTest, RoundRobinCycles) {
  Build(4);
  RoundRobinBalancer rr(Ctx());
  const TxnType& t = registry_.Get(0);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(rr.Route(t), i % 4);
  }
}

TEST_F(BalancerTest, LeastConnectionsPicksIdleReplica) {
  Build(3);
  LeastConnectionsBalancer lc(Ctx());
  const TxnType& t = registry_.Get(0);
  // Load replicas 0 and 1 with queued work (never drained: sim not run).
  for (int i = 0; i < 5; ++i) {
    proxies_[0]->SubmitTransaction(t, [](bool) {});
    proxies_[1]->SubmitTransaction(t, [](bool) {});
  }
  EXPECT_EQ(lc.Route(t), 2u);
}

TEST_F(BalancerTest, LardKeepsTypeOnItsReplica) {
  Build(4);
  LardBalancer lard(Ctx());
  const TxnType& t = registry_.Get(0);
  const size_t first = lard.Route(t);
  // Low load: the same replica keeps serving the type.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lard.Route(t), first);
  }
}

TEST_F(BalancerTest, LardSpreadsOverloadedType) {
  Build(4);
  LardConfig config;
  config.t_low = 2;
  config.t_high = 4;
  LardBalancer lard(Ctx(), config);
  const TxnType& t = registry_.Get(0);
  const size_t first = lard.Route(t);
  // Pile outstanding work on the assigned replica beyond t_high.
  for (int i = 0; i < 6; ++i) {
    proxies_[first]->SubmitTransaction(t, [](bool) {});
  }
  const size_t second = lard.Route(t);
  EXPECT_NE(second, first);  // recruited a lightly loaded replica
  EXPECT_EQ(lard.ReplicaSet(t.id).size(), 2u);
}

// --- MALB mechanics on the real TPC-W workload ----------------------------

class MalbTest : public ::testing::Test {
 protected:
  MalbTest() : workload_(BuildTpcw(kTpcwMediumEbs)) {
    ReplicaConfig rc;  // 512 MB default, 70 MB reserved
    for (ReplicaId r = 0; r < 16; ++r) {
      replicas_.push_back(
          std::make_unique<Replica>(&sim_, &workload_.schema, r, rc, Rng(r + 1)));
      proxies_.push_back(std::make_unique<Proxy>(&sim_, replicas_.back().get(), &certifier_));
    }
  }

  BalancerContext Ctx() {
    BalancerContext ctx;
    ctx.sim = &sim_;
    ctx.registry = &workload_.registry;
    ctx.schema = &workload_.schema;
    for (auto& p : proxies_) {
      ctx.proxies.push_back(p.get());
    }
    return ctx;
  }

  Workload workload_;
  Simulator sim_;
  Certifier certifier_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
};

TEST_F(MalbTest, StartBuildsGroupsAndAssignsAllReplicas) {
  MalbConfig config;
  MalbBalancer malb(Ctx(), config);
  malb.Start();
  EXPECT_EQ(malb.packing().groups.size(), 6u);
  int total = 0;
  for (int c : malb.GroupReplicaCounts()) {
    EXPECT_GE(c, 1);
    total += c;
  }
  EXPECT_EQ(total, 16);
}

TEST_F(MalbTest, RoutesTypeToItsGroupReplicas) {
  MalbBalancer malb(Ctx(), MalbConfig{});
  malb.Start();
  const TxnTypeId best_seller = workload_.registry.Find("BestSeller");
  // Collect the replicas BestSeller is routed to; they must be a strict,
  // stable subset (its dedicated group).
  std::set<size_t> routed;
  for (int i = 0; i < 64; ++i) {
    routed.insert(malb.Route(workload_.registry.Get(best_seller)));
  }
  std::set<size_t> group;
  const auto type_groups = malb.GroupTypeIds();
  const auto& groups = malb.runtime_groups();
  for (size_t g = 0; g < type_groups.size(); ++g) {
    for (TxnTypeId t : type_groups[g]) {
      if (t == best_seller) {
        group.insert(groups[g].replicas.begin(), groups[g].replicas.end());
      }
    }
  }
  // With no outstanding work the dispatcher is free to favor one member, but
  // it must never leave the group.
  for (size_t r : routed) {
    EXPECT_TRUE(group.count(r) > 0);
  }
  EXPECT_LT(group.size(), 16u);  // BestSeller's dedicated group, not the world
}

TEST_F(MalbTest, NameReflectsMethodAndFiltering) {
  MalbConfig config;
  config.method = EstimationMethod::kSizeContent;
  MalbBalancer a(Ctx(), config);
  EXPECT_EQ(a.name(), "MALB-SC");
  config.update_filtering = true;
  MalbBalancer b(Ctx(), config);
  EXPECT_EQ(b.name(), "MALB-SC+UpdateFiltering");
}

TEST_F(MalbTest, FilteringInstallsAfterStability) {
  MalbConfig config;
  config.update_filtering = true;
  config.stable_ticks_for_filtering = 2;
  MalbBalancer malb(Ctx(), config);
  malb.Start();
  EXPECT_FALSE(malb.filtering_installed());
  // Idle system: loads are all zero, no moves happen, stability accrues.
  malb.TickForTest();
  malb.TickForTest();
  malb.TickForTest();
  EXPECT_TRUE(malb.filtering_installed());
  // Every proxy now has a subscription covering its group's tables.
  int with_subscription = 0;
  for (const auto& p : proxies_) {
    if (p->subscription().has_value()) {
      ++with_subscription;
    }
  }
  EXPECT_EQ(with_subscription, 16);
}

// A 16-replica MALB cluster with update filtering installed on the idle
// cluster (zero load converges at once, so stability accrues per tick).
struct FilteringCluster {
  FilteringCluster(const Workload& workload, FilteringMode mode) {
    ReplicaConfig rc;  // 512 MB default, 70 MB reserved
    BalancerContext ctx;
    ctx.sim = &sim;
    ctx.registry = &workload.registry;
    ctx.schema = &workload.schema;
    for (ReplicaId r = 0; r < 16; ++r) {
      replicas.push_back(
          std::make_unique<Replica>(&sim, &workload.schema, r, rc, Rng(r + 1)));
      proxies.push_back(std::make_unique<Proxy>(&sim, replicas.back().get(), &certifier));
      ctx.proxies.push_back(proxies.back().get());
    }
    MalbConfig config;
    config.update_filtering = true;
    config.filtering_mode = mode;
    config.stable_ticks_for_filtering = 1;
    config.min_copies = kMinCopies;
    malb = std::make_unique<MalbBalancer>(ctx, config);
    malb->Start();
    malb->TickForTest();
    malb->TickForTest();
  }

  static constexpr int kMinCopies = 2;
  Simulator sim;
  Certifier certifier;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<Proxy>> proxies;
  std::unique_ptr<MalbBalancer> malb;
};

// Independent oracle: each runtime group's tables come from the working sets
// of its types (not from the balancer's own GroupTables), and only available
// replicas' subscriptions count. CheckAvailability then demands both type
// and table availability at min_copies.
AvailabilityReport CheckClusterAvailability(const Workload& workload,
                                            const FilteringCluster& c) {
  std::map<TxnTypeId, RelationSet> tables_of;
  RelationSet all_tables;
  for (const TypeWorkingSet& ws : BuildWorkingSets(workload.registry, workload.schema)) {
    for (const auto& e : ws.relations) {
      tables_of[ws.type].insert(e.relation);
      all_tables.insert(e.relation);
    }
  }
  std::vector<RelationSet> group_tables;
  for (const auto& types : c.malb->GroupTypeIds()) {
    RelationSet tables;
    for (TxnTypeId t : types) {
      tables.insert(tables_of[t].begin(), tables_of[t].end());
    }
    group_tables.push_back(std::move(tables));
  }
  std::map<ReplicaId, RelationSet> subscriptions;
  for (const auto& p : c.proxies) {
    if (p->available()) {
      // No subscription means the replica applies every writeset.
      subscriptions[p->replica_id()] =
          p->subscription().has_value() ? *p->subscription() : all_tables;
    }
  }
  return CheckAvailability(group_tables, subscriptions, FilteringCluster::kMinCopies);
}

TEST_F(MalbTest, FilteringSubscriptionsRespectAvailability) {
  for (FilteringMode mode : {FilteringMode::kFreezeWhenStable, FilteringMode::kDynamic}) {
    SCOPED_TRACE(mode == FilteringMode::kDynamic ? "dynamic" : "freeze-when-stable");
    // victim == kNone checks the idle cluster; the others crash that replica
    // and give the balancer one allocation tick to re-plan.
    constexpr size_t kNone = 16;
    for (size_t victim = 0; victim <= kNone; ++victim) {
      SCOPED_TRACE("victim " + std::to_string(victim));
      FilteringCluster c(workload_, mode);
      ASSERT_TRUE(c.malb->filtering_installed());
      if (victim != kNone) {
        c.proxies[victim]->Crash();
        c.malb->TickForTest();
      }
      const AvailabilityReport report = CheckClusterAvailability(workload_, c);
      EXPECT_TRUE(report.ok) << report.under_replicated_groups.size() << " groups, "
                             << report.under_replicated_tables.size() << " tables short";
    }
  }
}

TEST_F(MalbTest, FrozenAllocationNeverMoves) {
  MalbConfig config;
  config.freeze_allocation = true;
  MalbBalancer malb(Ctx(), config);
  malb.Start();
  const auto before = malb.GroupReplicaCounts();
  malb.TickForTest();
  malb.TickForTest();
  EXPECT_EQ(malb.GroupReplicaCounts(), before);
}

TEST_F(MalbTest, SnapshotLoadsCoverAllGroups) {
  MalbBalancer malb(Ctx(), MalbConfig{});
  malb.Start();
  const auto loads = malb.SnapshotLoads();
  ASSERT_EQ(loads.size(), malb.runtime_groups().size());
  int total = 0;
  for (const auto& l : loads) {
    total += l.replicas;
  }
  EXPECT_EQ(total, 16);
}

}  // namespace
}  // namespace tashkent
