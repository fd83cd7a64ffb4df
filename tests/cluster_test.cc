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

TEST(ClusterConfig, RejectsNonPositiveTimelineBucket) {
  // Every commit records into the timeline, which divides by the bucket
  // width: a zero or negative width must be refused when the cluster is built.
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  for (const SimDuration width : {SimDuration{0}, -Seconds(30.0)}) {
    ClusterConfig config = MakeClusterConfig(512 * kMiB, 2);
    config.timeline_bucket = width;
    try {
      Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
      ADD_FAILURE() << "timeline_bucket " << width << " constructed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("timeline_bucket"), std::string::npos) << e.what();
    }
  }
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
