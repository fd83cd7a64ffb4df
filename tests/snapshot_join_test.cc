// Checkpoint/state-transfer join and the bounded certifier log: the PR-7
// differential proof, decomposed into the pieces that can hold exactly.
//
// Literal bit-identity between a checkpoint join and a legacy replay-from-0
// join under live traffic is physically impossible — the two paths draw the
// joiner's RNG stream differently (a full-log replay dirties pages the image
// skips), so every downstream event shifts. The proof therefore splits:
//
//   1. Mode on/off byte-identity where the machinery is armed but unused:
//      kill/recover churn with the log never pruned takes the same replay
//      path either way, so every metric must be bit-identical.
//   2. Auto-prune on/off byte-identity: the prune floor is conservative (it
//      chases the slowest replica and pins on in-flight installs), so
//      pruning is provably inert for results — bit-identical metrics — while
//      still reclaiming log chunks and arena blocks (the bound).
//   3. Checkpoint joins converge: the joiner installs exactly one image,
//      catches the log head, serves traffic; and its join latency is
//      independent of cluster age, while a legacy join's grows with the log.
//   4. A replica joining a PRUNED cluster installs a checkpoint instead of
//      throwing (the PR-3 contract in src/certifier/certifier.h, updated);
//      with the machinery off it throws std::runtime_error.
//   5. jobs-4 ≡ jobs-1 on a mini-marathon campaign fixture, including the
//      new log_chunks_hwm / arena_bytes_hwm / joins / join_latency_s fields.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/cluster/campaign.h"
#include "src/cluster/cluster.h"
#include "src/cluster/scenario.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

ClusterConfig Config(size_t replicas = 4, uint64_t seed = 42) {
  ClusterConfig c;
  c.replicas = replicas;
  c.clients_per_replica = 4;
  c.seed = seed;
  return c;
}

ClusterConfig LegacyConfig(size_t replicas = 4, uint64_t seed = 42) {
  ClusterConfig c = Config(replicas, seed);
  c.checkpoint.checkpoint_join = false;
  c.checkpoint.auto_prune = false;
  return c;
}

// Every metric bit-identical (doubles compared exactly, not near-equality).
void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(DifferingMetrics(a, b), std::vector<std::string>{});
}

// --- 1. mode on/off byte-identity on the shared paths ------------------------

TEST(SnapshotJoinDifferential, ArmedButUnusedMachineryIsByteIdentical) {
  // Kill/recover churn with auto-pruning DISABLED in both runs: the log is
  // never pruned, so recovery replays the log in both modes and the
  // checkpoint source is never consulted. Every metric must match bitwise.
  const ScenarioBuilder script = ScenarioBuilder()
                                     .Warmup(Seconds(60.0))
                                     .At(Seconds(20.0), KillReplica{1})
                                     .At(Seconds(80.0), RecoverReplica{1})
                                     .Measure(Seconds(180.0), "churn");
  const Workload w = BuildTpcw(kTpcwSmallEbs);

  ClusterConfig with_join = Config();
  with_join.checkpoint.auto_prune = false;  // isolate the checkpoint_join flag
  const ScenarioResult a = script.Run(w, kTpcwOrdering, "LeastConnections", with_join);
  const ScenarioResult b = script.Run(w, kTpcwOrdering, "LeastConnections", LegacyConfig());
  ExpectBitIdentical(a.ByLabel("churn"), b.ByLabel("churn"));
}

// --- 2. auto-prune on/off byte-identity + the memory bound -------------------

TEST(SnapshotJoinDifferential, AutoPruneIsInertForResultsAndBoundsTheLog) {
  // Same churn scenario (including a mid-run join) with pruning on vs off.
  // The conservative floor makes pruning invisible to every simulated
  // outcome; only the log's memory footprint may differ.
  const ScenarioBuilder script = ScenarioBuilder()
                                     .Warmup(Seconds(60.0))
                                     .At(Seconds(20.0), KillReplica{1})
                                     .At(Seconds(80.0), RecoverReplica{1})
                                     .Measure(Seconds(180.0), "churn")
                                     .At(Seconds(10.0), AddReplica{})
                                     .Measure(Seconds(120.0), "join");

  ClusterConfig pruned = Config();
  ASSERT_TRUE(pruned.checkpoint.auto_prune);  // the default
  ClusterConfig unpruned = Config();
  unpruned.checkpoint.auto_prune = false;

  const Workload wa = BuildTpcw(kTpcwSmallEbs);
  Cluster ca(wa, kTpcwOrdering, "LeastConnections", pruned);
  const ScenarioResult a = script.RunOn(ca);
  const Workload wb = BuildTpcw(kTpcwSmallEbs);
  Cluster cb(wb, kTpcwOrdering, "LeastConnections", unpruned);
  const ScenarioResult b = script.RunOn(cb);

  // Only the certifier-memory high-water marks may differ.
  const std::set<std::string> log_memory = {"log_chunks_hwm", "arena_bytes_hwm",
                                            "conflict_rows_hwm"};
  for (const char* label : {"churn", "join"}) {
    SCOPED_TRACE(label);
    for (const std::string& metric : DifferingMetrics(a.ByLabel(label), b.ByLabel(label))) {
      EXPECT_EQ(log_memory.count(metric), 1u) << metric;
    }
  }

  // The bound: pruning fired and reclaimed log memory and conflict rows the
  // unpruned twin kept.
  EXPECT_GT(ca.prunes(), 0u);
  EXPECT_GT(ca.certifier().log_pruned_below(), 0u);
  EXPECT_EQ(cb.certifier().log_pruned_below(), 0u);
  EXPECT_LT(ca.certifier().log_chunk_count(), cb.certifier().log_chunk_count());
  EXPECT_LT(ca.certifier().conflict_rows(), cb.certifier().conflict_rows());
  // Both clusters saw the identical commit stream (same head version).
  EXPECT_EQ(ca.certifier().head_version(), cb.certifier().head_version());
}

// --- 3. checkpoint joins converge, and latency ignores cluster age -----------

TEST(SnapshotJoin, JoinInstallsOneImageCatchesHeadAndServes) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config());
  cluster.Advance(Seconds(300.0));  // age the cluster: prunes have fired
  ASSERT_GT(cluster.certifier().log_pruned_below(), 0u);

  const size_t index = cluster.AddReplica();
  // The `recover` row from kDown with a newer image: the joiner installs it.
  EXPECT_EQ(cluster.proxies()[index]->lifecycle(), ReplicaLifecycle::kInstalling);
  EXPECT_FALSE(cluster.proxies()[index]->available());
  cluster.Advance(Seconds(120.0));

  const Proxy& joiner = *cluster.proxies()[index];
  EXPECT_TRUE(joiner.available());
  EXPECT_EQ(joiner.stats().joins, 1u);
  EXPECT_GT(joiner.stats().join_time_s, 0.0);
  // The image really streamed the database (replica-level accounting).
  EXPECT_EQ(cluster.replicas()[index]->stats().checkpoint_installs, 1u);
  EXPECT_GT(cluster.replicas()[index]->stats().checkpoint_bytes, 0);
  // Caught up with the log head (modulo commits still in flight).
  EXPECT_GE(joiner.applied_version() + 50, cluster.certifier().head_version());
  // And it serves: commits or reads land on it in the next window.
  cluster.Measure(Seconds(60.0));
  EXPECT_GT(joiner.stats().committed + joiner.stats().read_only, 0u);
}

// Joins one replica into a cluster aged `age` seconds and returns the join
// latency its proxy recorded.
double JoinLatencyAtAge(SimDuration age, const ClusterConfig& config) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
  cluster.Advance(age);
  const size_t index = cluster.AddReplica();
  // Generous convergence window; legacy joins into old clusters replay the
  // whole log.
  for (int i = 0; i < 20 && !cluster.proxies()[index]->available(); ++i) {
    cluster.Advance(Seconds(60.0));
  }
  const ProxyStats& s = cluster.proxies()[index]->stats();
  EXPECT_EQ(s.joins, 1u) << "join did not complete";
  return s.join_time_s;
}

TEST(SnapshotJoin, LatencyIndependentOfClusterAgeUnlikeLegacyReplay) {
  const double ck_young = JoinLatencyAtAge(Seconds(120.0), Config());
  const double ck_old = JoinLatencyAtAge(Seconds(1500.0), Config());
  const double legacy_young = JoinLatencyAtAge(Seconds(120.0), LegacyConfig());
  const double legacy_old = JoinLatencyAtAge(Seconds(1500.0), LegacyConfig());

  ASSERT_GT(ck_young, 0.0);
  ASSERT_GT(legacy_young, 0.0);
  // Checkpoint join: the image transfer dominates and its size is fixed, so
  // a 12.5x older cluster costs about the same to join.
  EXPECT_LT(ck_old, 1.5 * ck_young);
  // Legacy join: replays every commit since version 0, so the old join costs
  // a multiple of the young one...
  EXPECT_GT(legacy_old, 2.0 * legacy_young);
  // ...and the checkpoint join beats the legacy replay on the old cluster.
  EXPECT_LT(ck_old, legacy_old);
}

// --- 4. the updated PR-3 contract: joining a pruned cluster ------------------

TEST(SnapshotJoin, JoiningAPrunedClusterInstallsACheckpointInsteadOfThrowing) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", Config());
  cluster.Advance(Seconds(300.0));
  ASSERT_GT(cluster.certifier().log_pruned_below(), 0u);  // versions 1..floor are gone

  size_t index = 0;
  EXPECT_NO_THROW(index = cluster.AddReplica());
  cluster.Advance(Seconds(120.0));
  EXPECT_TRUE(cluster.proxies()[index]->available());
  EXPECT_EQ(cluster.replicas()[index]->stats().checkpoint_installs, 1u);
}

TEST(SnapshotJoin, LegacyJoinPastThePruneLineThrows) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", LegacyConfig());
  cluster.Advance(Seconds(120.0));
  // Operator prunes by hand (legal here: every CURRENT replica has applied
  // past the floor) — but now a legacy join needs version 1 and must refuse
  // loudly rather than read a recycled chunk.
  const Version floor = cluster.proxies()[0]->applied_version() / 2;
  ASSERT_GT(floor, 0u);
  cluster.certifier().PruneLogBelow(floor);
  EXPECT_THROW(cluster.AddReplica(), std::runtime_error);
}

// Pruning without checkpoint joins would strand the next legacy join (it
// replays from version 0), so the combination is refused when the cluster is
// built, naming both fields; the other three combinations construct.
TEST(SnapshotJoin, AutoPruneWithoutCheckpointJoinIsRejected) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = Config();
  config.checkpoint.checkpoint_join = false;
  ASSERT_TRUE(config.checkpoint.auto_prune);  // the default
  try {
    Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
    ADD_FAILURE() << "auto_prune without checkpoint_join constructed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("auto_prune"), std::string::npos) << what;
    EXPECT_NE(what.find("checkpoint_join"), std::string::npos) << what;
  }
  for (const bool join : {false, true}) {
    for (const bool prune : {false, true}) {
      if (prune && !join) {
        continue;
      }
      config.checkpoint.checkpoint_join = join;
      config.checkpoint.auto_prune = prune;
      EXPECT_NO_THROW(Cluster(w, kTpcwOrdering, "LeastConnections", config));
    }
  }
}

// --- 5. mini-marathon campaign fixture: jobs-4 == jobs-1 ---------------------

Campaign MarathonFixture() {
  Campaign campaign;
  campaign.name = "test-marathon";
  campaign.title = "snapshot_join_test determinism fixture";
  campaign.cells = [] {
    bench::CellOptions opts;
    opts.ram = 256 * kMiB;
    opts.replicas = 3;
    opts.clients = 3;
    // Churn + a checkpoint join under the default auto-pruning policy, plus
    // a legacy twin — both must be jobs-count invariant.
    const ScenarioBuilder script = ScenarioBuilder()
                                       .Warmup(Seconds(30.0))
                                       .At(Seconds(20.0), KillReplica{1})
                                       .At(Seconds(60.0), RecoverReplica{1})
                                       .Measure(Seconds(120.0), "churn")
                                       .At(Seconds(10.0), AddReplica{})
                                       .Measure(Seconds(120.0), "join");
    auto small = [] { return BuildTpcw(kTpcwSmallEbs); };
    bench::CellOptions legacy = opts;
    legacy.tweak = [](ClusterConfig& config) {
      config.checkpoint.checkpoint_join = false;
      config.checkpoint.auto_prune = false;
    };
    return std::vector<CampaignCell>{
        bench::ScenarioCell("bounded", small, kTpcwOrdering, "LeastConnections", script, opts),
        bench::ScenarioCell("legacy", small, kTpcwOrdering, "LeastConnections", script, legacy),
    };
  };
  return campaign;
}

TEST(MarathonCampaign, BitIdenticalAcrossJobCounts) {
  CampaignRunOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  CampaignRunOptions parallel = serial;
  parallel.jobs = 4;

  const Campaign campaign = MarathonFixture();
  const CampaignRunRecord a = RunCampaign(campaign, serial);
  const CampaignRunRecord b = RunCampaign(campaign, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE(a.cells[i].id);
    ASSERT_TRUE(a.cells[i].ok) << a.cells[i].error;
    ASSERT_TRUE(b.cells[i].ok) << b.cells[i].error;
    for (const char* label : {"churn", "join"}) {
      const ExperimentResult& ra = a.cells[i].output.Result(label);
      const ExperimentResult& rb = b.cells[i].output.Result(label);
      ExpectBitIdentical(ra, rb);  // including the bounded-log columns
    }
  }
  // The bounded cell actually joined a replica through a checkpoint.
  const ExperimentResult& join = a.cells[0].output.Result("join");
  EXPECT_EQ(join.joins, 1u);
  EXPECT_GT(join.join_latency_s, 0.0);
}

}  // namespace
}  // namespace tashkent
