// Unit tests for load balancing policies: RoundRobin, LeastConnections,
// LARD, and the MALB dispatcher mechanics (grouping, allocation moves,
// merging/splitting, filtering installation).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/balancer/lard.h"
#include "src/balancer/malb.h"
#include "src/balancer/simple.h"
#include "src/core/availability.h"
#include "src/core/working_set.h"
#include "src/proxy/idle_sets.h"
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
  MalbBalancer malb(Ctx(), MalbConfig{});
  malb.Freeze();
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

TEST_F(MalbTest, SupersededBalancerRouteThrows) {
  MalbBalancer a(Ctx(), MalbConfig{});
  a.Start();
  const TxnType& type = workload_.registry.Get(0);
  EXPECT_NO_THROW(a.Route(type));
  // A proxy reports to one balancer at a time: b's attach leaves a stale.
  MalbBalancer b(Ctx(), MalbConfig{});
  b.Start();
  EXPECT_THROW(a.Route(type), std::logic_error);
  EXPECT_NO_THROW(b.Route(type));
  for (const auto& p : proxies_) {
    EXPECT_EQ(p->idle_sets(), &b.idle_sets());
  }
}

TEST_F(MalbTest, DestructorDetachesProxies) {
  auto a = std::make_unique<MalbBalancer>(Ctx(), MalbConfig{});
  const IdleSets* sets = &a->idle_sets();
  for (const auto& p : proxies_) {
    EXPECT_EQ(p->idle_sets(), sets);
  }
  a.reset();
  for (const auto& p : proxies_) {
    EXPECT_EQ(p->idle_sets(), nullptr);
  }
  // A successor attaches without superseding anything, and a superseded
  // balancer's destructor leaves the successor's attachments alone.
  auto b = std::make_unique<MalbBalancer>(Ctx(), MalbConfig{});
  EXPECT_FALSE(b->idle_sets().superseded());
  auto c = std::make_unique<MalbBalancer>(Ctx(), MalbConfig{});
  EXPECT_TRUE(b->idle_sets().superseded());
  b.reset();
  for (const auto& p : proxies_) {
    EXPECT_EQ(p->idle_sets(), &c->idle_sets());
  }
  c.reset();
  for (const auto& p : proxies_) {
    EXPECT_EQ(p->idle_sets(), nullptr);
  }
}

// --- MALB spill valve: idle-set lookup vs. the all-proxy scan ---------------

// How often the differential script met each case the idle-set lookup must
// get right.
struct SpillCases {
  int zero_over_lower_one = 0;  // a load-0 spill target beat a lower-index load-1 one
  int tie_keeps_best = 0;       // best_out == 1 and a lower-index load-1 replica exists
  int down_zero_skipped = 0;    // a down load-0 replica below the pick was passed over
  int group_down_fallback = 0;  // every replica of the type's group was down
  int spill_to_added = 0;       // a replica added at runtime received a spill
};

// MALB's Route as it read before the idle sets: the group scan, the
// whole-group-down fallback and the spill valve as a scan of every proxy.
size_t ReferenceRoute(const MalbBalancer& malb, const std::vector<Proxy*>& proxies,
                      double spill_factor, TxnTypeId type, size_t initial_replicas,
                      SpillCases* cases) {
  const auto& groups = malb.runtime_groups();
  const auto type_groups = malb.GroupTypeIds();
  size_t g = 0;
  for (size_t i = 0; i < type_groups.size(); ++i) {
    for (TxnTypeId t : type_groups[i]) {
      if (t == type) {
        g = i;
      }
    }
  }
  const std::vector<size_t>& candidates =
      groups[g].replicas.empty() ? groups.front().replicas : groups[g].replicas;
  if (candidates.empty()) {
    return 0;
  }
  size_t best = candidates[0];
  size_t best_out = SIZE_MAX;
  for (size_t candidate : candidates) {
    if (!proxies[candidate]->available()) {
      continue;
    }
    const size_t out = proxies[candidate]->outstanding();
    if (out < best_out) {
      best = candidate;
      best_out = out;
    }
  }
  if (best_out == SIZE_MAX) {
    ++cases->group_down_fallback;
    for (size_t r = 0; r < proxies.size(); ++r) {
      if (proxies[r]->available()) {
        return r;
      }
    }
    return best;
  }
  if (spill_factor > 0 && !malb.filtering_installed()) {
    const double limit = spill_factor * static_cast<double>(proxies[best]->max_in_flight());
    if (static_cast<double>(best_out) >= limit) {
      size_t idle = best;
      size_t idle_out = best_out;
      for (size_t r = 0; r < proxies.size(); ++r) {
        if (!proxies[r]->available()) {
          continue;
        }
        const size_t out = proxies[r]->outstanding();
        if (out < idle_out) {
          idle = r;
          idle_out = out;
        }
      }
      const size_t pick = idle_out <= 1 ? idle : best;
      bool down_zero_below = false;
      bool one_below = false;
      for (size_t r = 0; r < pick; ++r) {
        const size_t out = proxies[r]->outstanding();
        if (!proxies[r]->available()) {
          down_zero_below |= out == 0;
        } else {
          one_below |= out == 1;
        }
      }
      cases->down_zero_skipped += down_zero_below && best_out > 0 ? 1 : 0;
      cases->zero_over_lower_one += one_below && pick != best ? 1 : 0;
      cases->tie_keeps_best += one_below && pick == best && best_out == 1 ? 1 : 0;
      cases->spill_to_added += pick != best && pick >= initial_replicas ? 1 : 0;
      return pick;
    }
  }
  return best;
}

// A hand-wired MALB cluster on TPC-W whose gatekeepers admit one or two
// transactions at a time, so a few submissions back a group up.
class SpillRig {
 public:
  SpillRig(const Workload& workload, size_t replicas, int slots, MalbConfig config)
      : workload_(workload), slots_(slots), spill_factor_(config.spill_factor) {
    ctx_.sim = &sim_;
    ctx_.registry = &workload.registry;
    ctx_.schema = &workload.schema;
    for (size_t r = 0; r < replicas; ++r) {
      ctx_.proxies.push_back(NewProxy());
    }
    malb_ = std::make_unique<MalbBalancer>(ctx_, config);
    malb_->Start();
  }

  // Runs `steps` seeded operations and compares every type's Route with the
  // reference after each one.
  void Run(uint64_t seed, int steps, SpillCases* cases) {
    Rng rng(seed);
    const size_t initial = ctx_.proxies.size();
    const size_t types = workload_.registry.size();
    for (int step = 0; step < steps; ++step) {
      const uint64_t op = rng.NextBelow(100);
      if (op < 30) {
        // A backlog burst on one group: every member gets 1-4 more.
        const auto& groups = malb_->runtime_groups();
        const auto& members = groups[rng.NextBelow(groups.size())].replicas;
        const uint64_t depth = 1 + rng.NextBelow(4);
        for (size_t r : members) {
          for (uint64_t k = 0; k < depth; ++k) {
            Submit(r, rng);
          }
        }
      } else if (op < 45) {
        // Route-driven arrivals.
        for (int k = 0; k < 8; ++k) {
          const TxnType& type = workload_.registry.Get(rng.NextBelow(types));
          ctx_.proxies[malb_->Route(type)]->SubmitTransaction(type, [](bool) {});
        }
      } else if (op < 80) {
        sim_.RunUntil(sim_.Now() + Micros(static_cast<int64_t>(rng.NextBelow(40'000))));
      } else if (op < 86) {
        ctx_.proxies[rng.NextBelow(ctx_.proxies.size())]->Crash();
      } else if (op < 94) {
        for (Proxy* p : ctx_.proxies) {
          if (p->lifecycle() == ReplicaLifecycle::kDown && rng.NextBelow(4) == 0) {
            p->Recover();
          }
        }
      } else if (op < 96) {
        // A whole group goes down.
        const auto& groups = malb_->runtime_groups();
        for (size_t r : groups[rng.NextBelow(groups.size())].replicas) {
          ctx_.proxies[r]->Crash();
        }
      } else if (op < 98) {
        Proxy* proxy = NewProxy();
        malb_->OnReplicaAdded(proxy);
        ctx_.proxies.push_back(proxy);
        proxy->JoinAsNew();
      } else {
        Submit(rng.NextBelow(ctx_.proxies.size()), rng);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSetsMatch()) << "step " << step;
      for (TxnTypeId t = 0; t < types; ++t) {
        ASSERT_EQ(malb_->Route(workload_.registry.Get(t)),
                  ReferenceRoute(*malb_, ctx_.proxies, spill_factor_, t, initial, cases))
            << "step " << step << ", type " << t;
      }
    }
  }

  // After every step the idle sets equal a recomputation from outstanding().
  void ExpectSetsMatch() const {
    const IdleSets& sets = malb_->idle_sets();
    for (size_t r = 0; r < ctx_.proxies.size(); ++r) {
      const size_t out = ctx_.proxies[r]->outstanding();
      ASSERT_EQ(sets.zero(r), out == 0) << "replica " << r << " outstanding " << out;
      ASSERT_EQ(sets.one(r), out == 1) << "replica " << r << " outstanding " << out;
    }
  }

  MalbBalancer& malb() { return *malb_; }

 private:
  Proxy* NewProxy() {
    ReplicaConfig rc;
    rc.memory = 256 * kMiB;
    const ReplicaId id = static_cast<ReplicaId>(replicas_.size());
    replicas_.push_back(std::make_unique<Replica>(&sim_, &workload_.schema, id, rc, Rng(id + 1)));
    ProxyConfig pc;
    pc.max_in_flight = slots_;
    proxies_.push_back(std::make_unique<Proxy>(&sim_, replicas_.back().get(), &certifier_, pc));
    return proxies_.back().get();
  }

  void Submit(size_t replica, Rng& rng) {
    const TxnType& type = workload_.registry.Get(rng.NextBelow(workload_.registry.size()));
    ctx_.proxies[replica]->SubmitTransaction(type, [](bool) {});
  }

  const Workload& workload_;
  int slots_;
  double spill_factor_;
  Simulator sim_;
  Certifier certifier_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  BalancerContext ctx_;
  std::unique_ptr<MalbBalancer> malb_;
};

TEST_F(MalbTest, SpillLookupMatchesAllProxyScan) {
  struct Variant {
    const char* name;
    size_t replicas;
    int slots;  // gatekeeper admission limit
    double spill_factor;
    bool filtering;
  };
  // A spill limit of 1 (slots x spill_factor) spills from best_out 1, where
  // a tie with a lower-index load-1 replica must keep best. One slot sends
  // the 1 <-> 2 crossings through the gatekeeper's queue.
  const Variant variants[] = {
      {"spill 2", 64, 2, 2.0, false},
      {"spill 0.5", 96, 2, 0.5, false},
      {"one slot", 128, 1, 1.0, false},
      {"256 replicas", 256, 2, 0.5, false},
      {"filtering", 64, 2, 2.0, true},
      {"no spill", 64, 2, 0.0, false},
  };
  SpillCases spilling;
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    MalbConfig config;
    config.spill_factor = v.spill_factor;
    config.update_filtering = v.filtering;
    config.stable_ticks_for_filtering = 1;
    SpillRig rig(workload_, v.replicas, v.slots, config);
    if (v.filtering) {
      // The idle cluster is stable at once: filtering installs, spills stop.
      rig.malb().TickForTest();
      rig.malb().TickForTest();
      ASSERT_TRUE(rig.malb().filtering_installed());
    }
    SpillCases cases;
    ASSERT_NO_FATAL_FAILURE(rig.Run(0x5eed + v.replicas, 400, &cases));
    EXPECT_GT(cases.group_down_fallback, 0);
    if (v.spill_factor > 0 && !v.filtering) {
      spilling.zero_over_lower_one += cases.zero_over_lower_one;
      spilling.tie_keeps_best += cases.tie_keeps_best;
      spilling.down_zero_skipped += cases.down_zero_skipped;
      spilling.spill_to_added += cases.spill_to_added;
    }
  }
  EXPECT_GT(spilling.zero_over_lower_one, 0);
  EXPECT_GT(spilling.tie_keeps_best, 0);
  EXPECT_GT(spilling.down_zero_skipped, 0);
  EXPECT_GT(spilling.spill_to_added, 0);
}

}  // namespace
}  // namespace tashkent
