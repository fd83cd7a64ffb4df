// Tests for the cluster/experiment layer: configuration helpers, calibration
// methodology, standalone runs, metrics plumbing, and the MALB spill valve.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cluster/calibration.h"
#include "src/cluster/experiment.h"
#include "src/cluster/scenario.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

TEST(ClusterConfig, MakeClusterConfigSetsMemory) {
  const ClusterConfig c = MakeClusterConfig(256 * kMiB, 4, 7);
  EXPECT_EQ(c.replicas, 4u);
  EXPECT_EQ(c.replica.memory, 256 * kMiB);
  EXPECT_EQ(c.seed, 7u);
}

TEST(Calibration, StandaloneRunProducesMetrics) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ExperimentResult r = RunStandalone(w, kTpcwShopping, MakeClusterConfig(512 * kMiB), 4,
                                           Seconds(30.0), Seconds(60.0))
                                 .ByLabel("measure");
  EXPECT_GT(r.tps, 0.5);
  EXPECT_GT(r.committed, 30u);
  EXPECT_GT(r.mean_response_s, 0.0);
}

TEST(Calibration, MoreClientsMoreThroughputUntilSaturation) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ClusterConfig config = MakeClusterConfig(1024 * kMiB);
  const auto tps = [&](int clients) {
    return RunStandalone(w, kTpcwShopping, config, clients, Seconds(30.0), Seconds(60.0))
        .ByLabel("measure")
        .tps;
  };
  const double t2 = tps(2);
  const double t8 = tps(8);
  EXPECT_GT(t8, t2);
}

TEST(Calibration, ChoosesReasonableClientCount) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const CalibrationResult cal = CalibrateClientsPerReplica(
      w, kTpcwShopping, MakeClusterConfig(512 * kMiB), Seconds(20.0), Seconds(40.0));
  EXPECT_GE(cal.clients_per_replica, 1);
  EXPECT_LE(cal.clients_per_replica, 64);
  EXPECT_GT(cal.single_peak_tps, 0.0);
  // The chosen population reaches at least 85% of the observed peak.
  EXPECT_GE(cal.single_85_tps, 0.85 * cal.single_peak_tps - 1e-9);
}

TEST(Experiment, CalibratedClientsIsCached) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ClusterConfig config = MakeClusterConfig(512 * kMiB);
  const int a = CalibratedClients(w, kTpcwShopping, config);
  const int b = CalibratedClients(w, kTpcwShopping, config);  // cache hit
  EXPECT_EQ(a, b);
}

TEST(Experiment, TimelineCoversRun) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = MakeClusterConfig(512 * kMiB, 4);
  config.clients_per_replica = 4;
  Cluster cluster(w, kTpcwShopping, "LeastConnections", config);
  cluster.Run(Seconds(60.0), Seconds(60.0));
  // 120 s of run, 30 s buckets: roughly 4 buckets recorded.
  EXPECT_GE(cluster.timeline_buckets().size(), 3u);
  EXPECT_LE(cluster.timeline_buckets().size(), 5u);
}

// Moves a metric of any list type off its default.
void Perturb(double& v) { v += 1.0; }
void Perturb(uint64_t& v) { v += 1; }
void Perturb(bool& v) { v = !v; }

// Every metric is compared: a result differing in exactly one field is
// reported as differing in exactly that metric, and nothing else.
TEST(Metrics, DifferingMetricsNamesEveryMetric) {
  struct Case {
    std::string name;
    std::function<void(ExperimentResult&)> perturb;
  };
  std::vector<Case> cases;
#define METRIC_CASE(type, name, init) \
  cases.push_back({#name, [](ExperimentResult& r) { Perturb(r.name); }});
  TASHKENT_RUN_METRICS(METRIC_CASE)
  TASHKENT_FAULT_METRICS(METRIC_CASE)
#undef METRIC_CASE
  cases.push_back({"joins", [](ExperimentResult& r) { Perturb(r.joins); }});
  cases.push_back({"groups", [](ExperimentResult& r) { r.groups.push_back({{"BestSeller"}, 2}); }});
  ASSERT_EQ(cases.size(), 22u + 14u + 2u);

  const ExperimentResult base;
  EXPECT_EQ(DifferingMetrics(base, base), std::vector<std::string>{});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExperimentResult changed = base;
    c.perturb(changed);
    EXPECT_EQ(DifferingMetrics(base, changed), std::vector<std::string>{c.name});
    EXPECT_EQ(DifferingMetrics(changed, base), std::vector<std::string>{c.name});
    EXPECT_EQ(DifferingMetrics(changed, changed), std::vector<std::string>{});
  }
}

// Replica-side window counters the result folds into ratios, read from the
// components directly so they can be summed exactly.
struct ReplicaCounts {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t executed = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
};

ReplicaCounts ReadReplicaCounts(const Cluster& cluster) {
  ReplicaCounts c;
  for (const auto& r : cluster.replicas()) {
    c.read_bytes += r->stats().disk_read_bytes + r->stats().apply_read_bytes;
    c.write_bytes += r->stats().disk_write_bytes;
    c.executed += r->stats().txns_executed;
    c.pool_hits += r->pool().stats().hits;
    c.pool_misses += r->pool().stats().misses;
  }
  return c;
}

// A measure window reports what happened inside it and nothing else: a run
// measured as T1 then T2 sums, count by count, to the same run measured as
// one T1+T2 window. T1 holds a certifier crash and failover and a replica
// kill and recovery under dropped, duplicated and delayed messages, so
// every component's counters move before the T2 window opens; a component
// whose reset is missing carries T1 into T2 and breaks the sum.
TEST(Metrics, WindowsAddUp) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = MakeClusterConfig(256 * kMiB, 6);
  config.clients_per_replica = 6;
  config.faults.drop = 0.02;
  config.faults.duplicate = 0.02;
  config.faults.delay_probability = 0.05;
  config.faults.delay_mean = Millis(3);
  const SimDuration t1 = Seconds(60.0);
  const SimDuration t2 = Seconds(60.0);
  const auto opening = [] {
    ScenarioBuilder b;
    b.Warmup(Seconds(20.0))
        .At(Seconds(5.0), CrashCertifier{})
        .At(Seconds(8.0), FailoverCertifier{})
        .At(Seconds(15.0), KillReplica{1})
        .At(Seconds(25.0), RecoverReplica{1});
    return b;
  };

  Cluster split(w, kTpcwOrdering, "MALB-SC", config);
  const ExperimentResult a = opening().Measure(t1, "t1").RunOn(split).ByLabel("t1");
  const ReplicaCounts ra = ReadReplicaCounts(split);
  const ExperimentResult b = ScenarioBuilder().Measure(t2, "t2").RunOn(split).ByLabel("t2");
  const ReplicaCounts rb = ReadReplicaCounts(split);

  Cluster whole(w, kTpcwOrdering, "MALB-SC", config);
  const ExperimentResult ab = opening().Measure(t1 + t2, "all").RunOn(whole).ByLabel("all");
  const ReplicaCounts rab = ReadReplicaCounts(whole);

  // Every component's counters moved in T1.
  EXPECT_GT(a.committed, 0u);
  EXPECT_GT(a.recoveries, 0u);
  EXPECT_GT(a.realloc_moves, 0u);
  EXPECT_GT(a.msgs_dropped, 0u);
  EXPECT_GT(a.dedup_hits, 0u);
  EXPECT_EQ(a.cert_crashes, 1u);
  EXPECT_EQ(a.cert_failovers, 1u);
  EXPECT_GT(ra.pool_hits, 0u);

#define EXPECT_ADDS_UP(field) EXPECT_EQ(a.field + b.field, ab.field) << #field
  EXPECT_ADDS_UP(committed);
  EXPECT_ADDS_UP(aborted);
  EXPECT_ADDS_UP(rejected);
  EXPECT_ADDS_UP(recoveries);
  EXPECT_ADDS_UP(joins);
  EXPECT_ADDS_UP(replay_applied);
  EXPECT_ADDS_UP(replay_filtered);
  EXPECT_ADDS_UP(realloc_moves);
  EXPECT_ADDS_UP(msgs_dropped);
  EXPECT_ADDS_UP(msgs_duplicated);
  EXPECT_ADDS_UP(msgs_delayed);
  EXPECT_ADDS_UP(cert_timeouts);
  EXPECT_ADDS_UP(cert_retries);
  EXPECT_ADDS_UP(pull_retries);
  EXPECT_ADDS_UP(fenced);
  EXPECT_ADDS_UP(stale_responses);
  EXPECT_ADDS_UP(dedup_hits);
  EXPECT_ADDS_UP(cert_crashes);
  EXPECT_ADDS_UP(cert_failovers);
#undef EXPECT_ADDS_UP
  EXPECT_NEAR(a.cert_downtime_s + b.cert_downtime_s, ab.cert_downtime_s, 1e-9);

  EXPECT_EQ(ra.read_bytes + rb.read_bytes, rab.read_bytes);
  EXPECT_EQ(ra.write_bytes + rb.write_bytes, rab.write_bytes);
  EXPECT_EQ(ra.executed + rb.executed, rab.executed);
  EXPECT_EQ(ra.pool_hits + rb.pool_hits, rab.pool_hits);
  EXPECT_EQ(ra.pool_misses + rb.pool_misses, rab.pool_misses);
}

TEST(Experiment, AbortedTransactionsCounted) {
  // A hot single-page table forces write-write conflicts.
  Workload w;
  w.name = "hot";
  const RelationId hot = w.schema.AddTable("hot", PagesToBytes(2));
  TxnType t;
  t.name = "HotUpdate";
  t.base_cpu = Millis(1);
  t.writeset_bytes = 100;
  t.plan.steps = {Write(hot, 0, 4)};
  w.registry.Add(std::move(t));
  w.mixes.emplace_back("only", std::vector<double>{1.0});

  ClusterConfig config = MakeClusterConfig(512 * kMiB, 4);
  config.clients_per_replica = 8;
  Cluster cluster(w, "only", "RoundRobin", config);
  const ExperimentResult r = cluster.Run(Seconds(20.0), Seconds(60.0));
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.aborted, 0u);  // concurrent hot-row writers must conflict
}

TEST(ClusterConfig, RejectsOutOfRangeWorkloadSkew) {
  // Workload::skew reaches every replica's pool; one past the relation's end
  // must be refused when the cluster is built, not sampled.
  Workload w = BuildTpcw(kTpcwSmallEbs);
  w.skew = AccessSkew{1.5, 1.0};
  const ClusterConfig config = MakeClusterConfig(512 * kMiB, 2);
  try {
    Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
    ADD_FAILURE() << "an out-of-range Workload::skew constructed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("skew.hot_fraction"), std::string::npos) << e.what();
  }
  w.skew = AccessSkew{1.0, 0.0};
  EXPECT_NO_THROW(Cluster(w, kTpcwOrdering, "LeastConnections", config));
}

TEST(ClusterConfig, RejectsZeroReplicas) {
  // With no replica every balancer routes over an empty proxy list; the
  // cluster must refuse to be built rather than crash once clients arrive.
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ClusterConfig config = MakeClusterConfig(512 * kMiB, 0, 1);
  try {
    Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
    cluster.SetPopulation(2);
    cluster.Advance(Seconds(5.0));
    ADD_FAILURE() << "a zero-replica cluster constructed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ClusterConfig.replicas"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Cluster(w, kTpcwOrdering, "RoundRobin", config), std::invalid_argument);
}

TEST(Spill, DisabledSpillKeepsTypesInGroup) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  ClusterConfig config = MakeClusterConfig(512 * kMiB);
  config.clients_per_replica = 6;
  config.malb.spill_factor = 0.0;  // hard partitioning
  Cluster cluster(w, kTpcwOrdering, "MALB-SC", config);
  const ExperimentResult r = cluster.Run(Seconds(60.0), Seconds(60.0));
  EXPECT_GT(r.tps, 1.0);
}

TEST(Spill, HelpsWhenDatabaseFitsMemory) {
  // SmallDB at 1 GB: everything is cached, so partitioning only restricts
  // parallelism; the spill valve must keep MALB within ~12% of LC.
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = MakeClusterConfig(1024 * kMiB);
  config.clients_per_replica = 10;
  Cluster lc(w, kTpcwOrdering, "LeastConnections", config);
  const double lc_tps = lc.Run(Seconds(120.0), Seconds(120.0)).tps;
  Cluster malb(w, kTpcwOrdering, "MALB-SC", config);
  const double malb_tps = malb.Run(Seconds(120.0), Seconds(120.0)).tps;
  EXPECT_GT(malb_tps, 0.88 * lc_tps);
}

}  // namespace
}  // namespace tashkent
