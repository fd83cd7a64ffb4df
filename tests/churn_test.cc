// Churn subsystem: kill/recover replay, heterogeneous capacities, elastic
// AddReplica/ResizeMemory, scenario wiring, and campaign determinism.
//
// The tier-1 properties the ISSUE pins down:
//   * a kill -> recover round trip restores pre-fault throughput within
//     tolerance, and the recovery (log replay) is observable in the metrics;
//   * heterogeneous packing never assigns a (non-overflow) group to a replica
//     whose capacity it exceeds;
//   * churn campaigns stay bit-identical under --jobs 4 vs --jobs 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/campaign.h"
#include "src/common/alloc_guard.h"
#include "src/cluster/cluster.h"
#include "src/cluster/scenario.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

ClusterConfig Config(size_t replicas = 8, uint64_t seed = 42) {
  ClusterConfig c;
  c.replicas = replicas;
  c.clients_per_replica = 4;
  c.seed = seed;
  return c;
}

// --- kill -> recover round trip ---------------------------------------------

class ChurnRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnRoundTrip, RestoresThroughputAndRecordsRecovery) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, GetParam(), Config());
  cluster.Advance(Seconds(120.0));
  const ExperimentResult before = cluster.Measure(Seconds(120.0));
  ASSERT_GT(before.tps, 1.0);

  cluster.Apply(KillReplica{3});
  cluster.Advance(Seconds(60.0));  // commits accumulate while it is down
  cluster.Apply(RecoverReplica{3});
  // The replay completes inside this window, so its metrics land here.
  const ExperimentResult during = cluster.Measure(Seconds(120.0));
  EXPECT_EQ(during.recoveries, 1u);
  EXPECT_GT(during.recovery_lag_s, 0.0);
  EXPECT_GT(during.replay_applied, 0u);
  EXPECT_TRUE(cluster.proxies()[3]->available());

  const ExperimentResult after = cluster.Measure(Seconds(120.0));
  // Back at full strength: throughput within tolerance of the pre-fault
  // level (the cache re-warms during the recovery window).
  EXPECT_GT(after.tps, 0.7 * before.tps);
}

INSTANTIATE_TEST_SUITE_P(Policies, ChurnRoundTrip,
                         ::testing::Values("LeastConnections", "MALB-SC"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ChurnLifecycle, RecoveringReplicaRejectsWorkUntilCaughtUp) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config());
  cluster.Advance(Seconds(60.0));
  cluster.Apply(KillReplica{2});
  EXPECT_EQ(cluster.proxies()[2]->lifecycle(), ReplicaLifecycle::kDown);
  cluster.Advance(Seconds(60.0));
  cluster.Apply(RecoverReplica{2});
  // Recovery replays the log before rejoining: not yet available.
  EXPECT_EQ(cluster.proxies()[2]->lifecycle(), ReplicaLifecycle::kRecovering);
  EXPECT_FALSE(cluster.proxies()[2]->available());
  cluster.Advance(Seconds(60.0));
  EXPECT_EQ(cluster.proxies()[2]->lifecycle(), ReplicaLifecycle::kUp);
  EXPECT_GT(cluster.proxies()[2]->stats().recoveries, 0u);
  // Caught up with the certifier log head (modulo commits still in flight).
  EXPECT_GE(cluster.proxies()[2]->applied_version() + 50,
            cluster.proxies()[0]->applied_version());
}

// --- heterogeneous capacities ------------------------------------------------

TEST(Heterogeneous, PackingNeverExceedsAReplicasCapacity) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  ClusterConfig config = Config();
  config.replica_memory = {1024 * kMiB, 768 * kMiB, 512 * kMiB, 512 * kMiB,
                           512 * kMiB,  384 * kMiB, 256 * kMiB, 128 * kMiB};
  Cluster cluster(w, kTpcwOrdering, "MALB-SC", config);
  cluster.Advance(Seconds(60.0));
  MalbBalancer* malb = cluster.malb();
  ASSERT_NE(malb, nullptr);
  for (int tick = 0; tick < 5; ++tick) {
    malb->TickForTest();
    const auto& capacities = malb->capacity_pages();
    const Pages max_capacity = *std::max_element(capacities.begin(), capacities.end());
    const auto& groups = malb->runtime_groups();
    ASSERT_FALSE(groups.empty());
    for (const auto& group : groups) {
      Pages need = 0;
      for (size_t p : group.packed) {
        need = std::max(need, malb->packing().groups[p].estimate_pages);
      }
      if (need > max_capacity) {
        continue;  // a true overflow group: no replica can host it anyway
      }
      for (size_t r : group.replicas) {
        EXPECT_LE(need, capacities[r])
            << "group needing " << need << " pages assigned to replica " << r
            << " with only " << capacities[r];
      }
    }
  }
  // The config really is heterogeneous and the cluster still commits work.
  EXPECT_NE(malb->capacity_pages().front(), malb->capacity_pages().back());
  EXPECT_GT(cluster.Measure(Seconds(60.0)).committed, 0u);
}

TEST(Heterogeneous, MemoryBelowReservationThrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(2);
  config.replica_memory = {512 * kMiB, 64 * kMiB};  // 64 MB < the 70 MB reservation
  EXPECT_THROW(Cluster(w, kTpcwOrdering, "MALB-SC", config), std::invalid_argument);
}

TEST(Heterogeneous, ReplicaMemorySizeMismatchThrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(4);
  config.replica_memory = {512 * kMiB, 512 * kMiB};  // 2 entries, 4 replicas
  EXPECT_THROW(Cluster(w, kTpcwOrdering, "LeastConnections", config),
               std::invalid_argument);
}

// --- elastic verbs -----------------------------------------------------------

TEST(Elastic, AddedReplicaReplaysLogThenServes) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  Cluster cluster(w, kTpcwOrdering, "MALB-SC", Config(4));
  cluster.Advance(Seconds(120.0));
  cluster.Apply(AddReplica{});
  ASSERT_EQ(cluster.replicas().size(), 5u);
  const size_t index = 4;
  // Joins via recovery: the `recover` row from kDown installs the cluster's
  // checkpoint image, which is newer than the joiner's empty database.
  EXPECT_EQ(cluster.proxies()[index]->lifecycle(), ReplicaLifecycle::kInstalling);
  EXPECT_FALSE(cluster.proxies()[index]->available());
  cluster.Advance(Seconds(120.0));
  EXPECT_TRUE(cluster.proxies()[index]->available());
  // MALB adopted it into a group (all five replicas allocated).
  MalbBalancer* malb = cluster.malb();
  ASSERT_NE(malb, nullptr);
  int allocated = 0;
  for (int count : malb->GroupReplicaCounts()) {
    allocated += count;
  }
  EXPECT_EQ(allocated, 5);
  // It actually serves traffic.
  cluster.Measure(Seconds(120.0));
  EXPECT_GT(cluster.proxies()[index]->stats().committed +
                cluster.proxies()[index]->stats().read_only,
            0u);
}

TEST(Elastic, ResizeMemoryShrinksAndGrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config(2));
  cluster.Advance(Seconds(120.0));
  const Pages warm = cluster.replicas()[0]->pool().used_pages();
  ASSERT_GT(warm, 0);

  cluster.Apply(ResizeMemory{0, 128 * kMiB});
  const Pages shrunk_capacity = cluster.replicas()[0]->pool().capacity_pages();
  EXPECT_EQ(shrunk_capacity, BytesToPages(128 * kMiB - 70 * kMiB));
  EXPECT_LE(cluster.replicas()[0]->pool().used_pages(), shrunk_capacity);
  EXPECT_EQ(cluster.replicas()[0]->config().memory, 128 * kMiB);

  cluster.Apply(ResizeMemory{0, 1024 * kMiB});
  EXPECT_EQ(cluster.replicas()[0]->pool().capacity_pages(),
            BytesToPages(1024 * kMiB - 70 * kMiB));

  EXPECT_THROW(cluster.Apply(ResizeMemory{0, 32 * kMiB}), std::invalid_argument);
}

// --- scenario wiring ---------------------------------------------------------

TEST(ChurnScenario, ScheduledVerbsTakeEffectAtTheirInstants) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config(3));
  // Read-only probes of replica 1's lifecycle one microsecond either side of
  // the two scheduled verbs' instants: 60 s warmup + 30 s and + 90 s.
  std::vector<ReplicaLifecycle> seen;
  for (const SimTime t : {Seconds(90.0) - 1, Seconds(90.0) + 1, Seconds(150.0) - 1,
                          Seconds(150.0) + 1}) {
    cluster.sim().ScheduleAt(t, [&seen, &cluster]() {
      seen.push_back(cluster.proxies()[1]->lifecycle());
    });
  }
  const ScenarioResult r = ScenarioBuilder()
                               .Warmup(Seconds(60.0))
                               .At(Seconds(30.0), KillReplica{1})
                               .At(Seconds(90.0), RecoverReplica{1})
                               .Measure(Seconds(180.0), "churn")
                               .Do(AddReplica{})
                               .Do(ResizeMemory{0, 1024 * kMiB})
                               .Measure(Seconds(60.0), "after")
                               .RunOn(cluster);

  EXPECT_EQ(seen, (std::vector<ReplicaLifecycle>{ReplicaLifecycle::kUp, ReplicaLifecycle::kDown,
                                                 ReplicaLifecycle::kDown,
                                                 ReplicaLifecycle::kRecovering}));
  // The Do verbs applied between the two windows: a fourth replica began
  // its join, and replica 0 runs with the new memory.
  ASSERT_EQ(cluster.replicas().size(), 4u);
  EXPECT_NE(cluster.proxies()[3]->lifecycle(), ReplicaLifecycle::kDown);
  EXPECT_EQ(cluster.replicas()[0]->config().memory, 1024 * kMiB);
  EXPECT_EQ(cluster.replicas()[0]->pool().capacity_pages(), BytesToPages(1024 * kMiB - 70 * kMiB));

  const ExperimentResult& churn = r.ByLabel("churn");
  EXPECT_EQ(churn.recoveries, 1u);
  EXPECT_LE(churn.availability, 1.0);
  EXPECT_GT(churn.availability, 0.5);
}

// The cluster owns a scheduled verb, not the script that scheduled it: a
// verb still pending when one RunOn returns fires during the next RunOn on
// the same cluster.
TEST(ChurnScenario, PendingVerbFiresDuringALaterRunOn) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config(3));
  ScenarioBuilder()
      .Warmup(Seconds(30.0))
      .At(Seconds(60.0), KillReplica{1})  // 30 s past the end of this script
      .Advance(Seconds(30.0))
      .RunOn(cluster);
  EXPECT_EQ(cluster.proxies()[1]->lifecycle(), ReplicaLifecycle::kUp);

  ScenarioBuilder().Advance(Seconds(60.0)).RunOn(cluster);
  EXPECT_EQ(cluster.proxies()[1]->lifecycle(), ReplicaLifecycle::kDown);
}

// --- scheduling verbs is allocation-free -------------------------------------

// One entry per Verb alternative, in the order the entries fire when each is
// scheduled `delay` from one instant. The alloc-guard below schedules the
// whole table, and its effect checks follow the entries.
struct VerbCase {
  SimDuration delay;
  Verb verb;
};

std::vector<VerbCase> EveryVerb() {
  return {
      {Seconds(10.0), KillReplica{1}},
      {Seconds(20.0), RecoverReplica{1}},
      {Seconds(30.0), ResizeMemory{0, 512 * kMiB}},
      {Seconds(40.0), CrashCertifier{}},
      {Seconds(45.0), FailoverCertifier{}},
      {Seconds(50.0), PartitionProxy{0, Seconds(2.0)}},
      {Seconds(55.0), SwitchMix{kTpcwBrowsing}},
      {Seconds(60.0), AddReplica{}},
      {Seconds(65.0), SetPopulation{20}},
      {Seconds(70.0), FreezeAllocation{}},
  };
}

// Cluster::At captures {cluster, Verb} inline in the simulator's event (no
// std::function): scheduling any verb — the verb value and the simulator
// event — performs zero heap allocations. A campaign can script hundreds of
// timeline mutations without perturbing the hot path it is about to
// measure.
TEST(ChurnScheduling, ScheduledVerbsDoNotAllocate) {
  const std::vector<VerbCase> verbs = EveryVerb();
  // The table must cover every Verb alternative exactly once: a new verb
  // without an entry here fails this test.
  std::vector<int> entries(std::variant_size_v<Verb>, 0);
  for (const VerbCase& c : verbs) {
    ++entries[c.verb.index()];
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    ASSERT_EQ(entries[i], 1) << "Verb alternative " << i << " needs exactly one table entry";
  }

  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config(3);
  config.proxy.retry.enabled = true;  // CrashCertifier needs guarded proxies
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
  cluster.Advance(Seconds(30.0));

  // Warm round: grow the simulator's event storage past what the guarded
  // round will need with no-op events. Advancing past them frees their
  // slots for the guarded round.
  for (int i = 0; i < 4; ++i) {
    for (const VerbCase& c : verbs) {
      cluster.sim().ScheduleAfter(c.delay, []() {});
    }
  }
  cluster.Advance(Seconds(90.0));

  {
    AllocGuard::Forbid forbid;
    for (const VerbCase& c : verbs) {
      cluster.At(c.delay, c.verb);
    }
    EXPECT_EQ(forbid.seen(), 0u) << "scheduling a verb allocated";
  }

  // The scheduled verbs really fire (allocating freely at execution time —
  // the guard covers scheduling only).
  cluster.Advance(Seconds(90.0));
  EXPECT_EQ(cluster.proxies()[1]->stats().recoveries, 1u);
  EXPECT_EQ(cluster.replicas()[0]->config().memory, 512 * kMiB);
  EXPECT_EQ(cluster.certifier().crashes(), 1u);
  EXPECT_EQ(cluster.certifier().failovers(), 1u);
  EXPECT_TRUE(cluster.certifier().serving());
  EXPECT_GT(cluster.proxies()[0]->stats().cert_timeouts, 0u);  // partitioned
  EXPECT_EQ(cluster.mix_name(), kTpcwBrowsing);
  EXPECT_EQ(cluster.replicas().size(), 4u);
  EXPECT_EQ(cluster.clients().population(), 20u);
}

// --- campaign determinism ----------------------------------------------------

Campaign ChurnFixture() {
  Campaign campaign;
  campaign.name = "test-churn";
  campaign.title = "churn_test determinism fixture";
  campaign.cells = [] {
    bench::CellOptions opts;
    opts.ram = 256 * kMiB;
    opts.replicas = 3;
    opts.clients = 3;
    const ScenarioBuilder script = ScenarioBuilder()
                                       .Warmup(Seconds(30.0))
                                       .At(Seconds(20.0), KillReplica{1})
                                       .At(Seconds(60.0), RecoverReplica{1})
                                       .At(Seconds(90.0), AddReplica{})
                                       .Measure(Seconds(150.0), "measure")
                                       .Do(ResizeMemory{0, 512 * kMiB})
                                       .Measure(Seconds(30.0), "resized");
    auto small = [] { return BuildTpcw(kTpcwSmallEbs); };
    return std::vector<CampaignCell>{
        bench::ScenarioCell("lc", small, kTpcwOrdering, "LeastConnections", script, opts),
        bench::ScenarioCell("malb", small, kTpcwOrdering, "MALB-SC", script, opts),
        bench::ScenarioCell("rr", small, kTpcwOrdering, "RoundRobin", script, opts),
    };
  };
  return campaign;
}

TEST(ChurnCampaign, BitIdenticalAcrossJobCounts) {
  CampaignRunOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  CampaignRunOptions parallel = serial;
  parallel.jobs = 4;

  const Campaign campaign = ChurnFixture();
  const CampaignRunRecord a = RunCampaign(campaign, serial);
  const CampaignRunRecord b = RunCampaign(campaign, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE(a.cells[i].id);
    ASSERT_TRUE(a.cells[i].ok) << a.cells[i].error;
    ASSERT_TRUE(b.cells[i].ok) << b.cells[i].error;
    for (const char* label : {"measure", "resized"}) {
      const ExperimentResult& ra = a.cells[i].output.Result(label);
      const ExperimentResult& rb = b.cells[i].output.Result(label);
      EXPECT_EQ(DifferingMetrics(ra, rb), std::vector<std::string>{});  // bit-identical
    }
  }
}

}  // namespace
}  // namespace tashkent
