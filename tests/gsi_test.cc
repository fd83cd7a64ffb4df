// GSI write-write conflict certification: the conflict index's unit tests, a
// randomized differential of the flat index against a brute-force history
// scan (with a negative control that prunes above a live snapshot), and a
// brute-force GSI oracle replayed over whole cluster histories with
// auto-pruning on — churn, certifier crash/failover with retries, and a
// certification that backs off across prune ticks while its replica's
// applied version passes its snapshot. Plus the bound: an hour of 8-replica
// TPC-W ordering keeps the conflict index flat.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/certifier/certifier.h"
#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/gsi/certification.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Writeset MakeWs(Version snapshot, std::vector<WritesetItem> items) {
  Writeset ws;
  ws.snapshot_version = snapshot;
  for (const WritesetItem& item : items) {
    ws.items.push_back(item);
  }
  return ws;
}

TEST(ConflictChecker, NoHistoryCommits) {
  ConflictChecker c;
  EXPECT_TRUE(c.Check(MakeWs(0, {{1, 42}})));
}

TEST(ConflictChecker, ConcurrentWriteWriteConflictAborts) {
  ConflictChecker c;
  // T1 commits a write to row (1,42) at version 5.
  Writeset t1 = MakeWs(0, {{1, 42}});
  t1.commit_version = 5;
  c.Record(t1);
  // T2 read snapshot 3 (< 5) and writes the same row: conflict.
  EXPECT_FALSE(c.Check(MakeWs(3, {{1, 42}})));
}

TEST(ConflictChecker, SerialWriteCommits) {
  ConflictChecker c;
  Writeset t1 = MakeWs(0, {{1, 42}});
  t1.commit_version = 5;
  c.Record(t1);
  // T2's snapshot already includes version 5: no conflict.
  EXPECT_TRUE(c.Check(MakeWs(5, {{1, 42}})));
  EXPECT_TRUE(c.Check(MakeWs(9, {{1, 42}})));
}

TEST(ConflictChecker, DisjointRowsNeverConflict) {
  ConflictChecker c;
  Writeset t1 = MakeWs(0, {{1, 42}});
  t1.commit_version = 5;
  c.Record(t1);
  EXPECT_TRUE(c.Check(MakeWs(0, {{1, 43}})));  // same table, different row
  EXPECT_TRUE(c.Check(MakeWs(0, {{2, 42}})));  // different table, same key
}

TEST(ConflictChecker, AnyOverlappingItemConflicts) {
  ConflictChecker c;
  Writeset t1 = MakeWs(0, {{1, 1}, {1, 2}, {1, 3}});
  t1.commit_version = 7;
  c.Record(t1);
  EXPECT_FALSE(c.Check(MakeWs(2, {{9, 9}, {1, 2}})));
}

TEST(ConflictChecker, LatestVersionWins) {
  ConflictChecker c;
  Writeset t1 = MakeWs(0, {{1, 1}});
  t1.commit_version = 5;
  c.Record(t1);
  Writeset t2 = MakeWs(5, {{1, 1}});
  t2.commit_version = 9;
  c.Record(t2);
  // Snapshot 7 saw version 5 but not 9: conflict against t2.
  EXPECT_FALSE(c.Check(MakeWs(7, {{1, 1}})));
  EXPECT_TRUE(c.Check(MakeWs(9, {{1, 1}})));
}

TEST(ConflictChecker, PruneForgetsOldVersions) {
  ConflictChecker c;
  Writeset t1 = MakeWs(0, {{1, 1}});
  t1.commit_version = 5;
  c.Record(t1);
  Writeset t2 = MakeWs(0, {{2, 2}});
  t2.commit_version = 20;
  c.Record(t2);
  EXPECT_EQ(c.tracked_rows(), 2u);
  c.PruneBelow(10);
  EXPECT_EQ(c.tracked_rows(), 1u);
  // Pruning is only safe when no snapshot predates the floor; rows written
  // after the floor still conflict.
  EXPECT_FALSE(c.Check(MakeWs(10, {{2, 2}})));
}

// Pruning erases in place: the capacity reached while growing is kept, and
// rows that survive a prune (including ones shifted back over erased slots)
// stay reachable.
TEST(ConflictChecker, PruneKeepsCapacityAndSurvivorsReachable) {
  ConflictChecker c;
  for (uint64_t v = 1; v <= 1000; ++v) {
    Writeset ws = MakeWs(0, {{static_cast<RelationId>(v % 3), v * 7919}});
    ws.commit_version = v;
    c.Record(ws);
  }
  EXPECT_EQ(c.tracked_rows(), 1000u);
  const size_t capacity = c.capacity();
  EXPECT_GE(capacity * 3, 1000u * 4);  // load never exceeds three quarters
  c.PruneBelow(600);
  EXPECT_EQ(c.tracked_rows(), 400u);
  EXPECT_EQ(c.capacity(), capacity);
  for (uint64_t v = 601; v <= 1000; ++v) {
    // Snapshot v-1 has not seen the write at v: every survivor still aborts.
    EXPECT_FALSE(c.Check(MakeWs(v - 1, {{static_cast<RelationId>(v % 3), v * 7919}}))) << v;
  }
  for (uint64_t v = 1; v <= 600; ++v) {
    // Forgotten: not even a snapshot-0 writeset sees the pruned write.
    EXPECT_TRUE(c.Check(MakeWs(0, {{static_cast<RelationId>(v % 3), v * 7919}}))) << v;
  }
}

// --- randomized differential: flat index vs brute force ----------------------

bool Overlaps(const Writeset::Items& a, const Writeset::Items& b) {
  for (const WritesetItem& x : a) {
    for (const WritesetItem& y : b) {
      if (x == y) {
        return true;
      }
    }
  }
  return false;
}

struct DifferentialOutcome {
  int verdict_mismatches = 0;
  int row_count_mismatches = 0;
  int commits = 0;
  int aborts = 0;
};

// Random certifications against a ConflictChecker and a brute-force scan of
// the committed history. Snapshots trail the head by up to kLag versions, so
// no later snapshot is below head - kLag: every 50 steps the checker prunes
// there, plus `overshoot`. Overshoot 0 is the GSI-safe point; anything above
// prunes past live snapshots.
DifferentialOutcome RunDifferential(uint64_t seed, Version overshoot) {
  constexpr Version kLag = 40;
  Rng rng(seed);
  ConflictChecker checker;
  std::vector<Writeset> committed;  // committed[v - 1] has commit version v
  Version floor = 0;                // no later snapshot is below this
  DifferentialOutcome out;
  for (int step = 0; step < 6000; ++step) {
    const Version head = committed.size();
    const Version lo = std::max<Version>(floor, head > kLag ? head - kLag : 0);
    Writeset ws;
    ws.snapshot_version = lo + rng.NextBelow(head - lo + 1);
    const uint64_t items = 1 + rng.NextBelow(4);
    for (uint64_t i = 0; i < items; ++i) {
      ws.items.push_back(WritesetItem{static_cast<RelationId>(rng.NextBelow(3)),
                                      rng.NextBelow(256)});
    }
    bool brute = true;
    for (Version v = ws.snapshot_version + 1; v <= head && brute; ++v) {
      brute = !Overlaps(committed[v - 1].items, ws.items);
    }
    if (checker.Check(ws) != brute) {
      ++out.verdict_mismatches;
    }
    if (brute) {
      ws.commit_version = head + 1;
      checker.Record(ws);
      committed.push_back(ws);
      ++out.commits;
    } else {
      ++out.aborts;
    }
    if (step % 50 == 49) {
      const Version now = committed.size();
      floor = now > kLag ? now - kLag : 0;
      const Version prune_at = std::min<Version>(floor + overshoot, now);
      checker.PruneBelow(prune_at);
      // The index holds exactly the rows last written above the prune point.
      std::vector<WritesetItem> live;
      for (Version v = prune_at + 1; v <= now; ++v) {
        for (const WritesetItem& item : committed[v - 1].items) {
          if (std::find(live.begin(), live.end(), item) == live.end()) {
            live.push_back(item);
          }
        }
      }
      if (checker.tracked_rows() != live.size()) {
        ++out.row_count_mismatches;
      }
    }
  }
  return out;
}

TEST(ConflictCheckerDifferential, MatchesBruteForceWhenPrunedAtTheSafePoint) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const DifferentialOutcome out = RunDifferential(seed, 0);
    EXPECT_EQ(out.verdict_mismatches, 0);
    EXPECT_EQ(out.row_count_mismatches, 0);
    // Both verdicts are exercised.
    EXPECT_GT(out.commits, 1000);
    EXPECT_GT(out.aborts, 500);
  }
}

// Negative control: the differential must notice a prune past live
// snapshots — forgotten rows let conflicting writesets commit.
TEST(ConflictCheckerDifferential, PruningAboveALiveSnapshotIsCaught) {
  const DifferentialOutcome out = RunDifferential(1, 20);
  EXPECT_GT(out.verdict_mismatches, 0);
}

// --- brute-force GSI oracle over cluster histories ---------------------------

// Replays a recorded decision history. Commits are dense in version order;
// every commit must have no overlapping committed writer in (snapshot,
// commit), and every abort must have one in (snapshot, head]. Returns one
// line per violation.
std::vector<std::string> GsiViolations(const std::vector<Certifier::Decision>& history) {
  std::vector<const Certifier::Decision*> by_version = {nullptr};  // index = version
  std::vector<std::string> bad;
  for (const Certifier::Decision& d : history) {
    if (d.committed) {
      if (d.commit_version != by_version.size() || d.commit_version != d.head + 1) {
        bad.push_back("commit version " + std::to_string(d.commit_version) +
                      " out of order at head " + std::to_string(d.head));
        return bad;
      }
      by_version.push_back(&d);
    }
  }
  for (const Certifier::Decision& d : history) {
    Version writer = 0;
    for (Version v = d.snapshot + 1; v <= d.head && writer == 0; ++v) {
      for (const WritesetItem& x : by_version[v]->items) {
        if (std::find(d.items.begin(), d.items.end(), x) != d.items.end()) {
          writer = v;
          break;
        }
      }
    }
    if (d.committed && writer != 0) {
      bad.push_back("commit " + std::to_string(d.commit_version) + " (snapshot " +
                    std::to_string(d.snapshot) + ") overlaps the writer at " +
                    std::to_string(writer));
    } else if (!d.committed && writer == 0) {
      bad.push_back("abort at head " + std::to_string(d.head) + " (snapshot " +
                    std::to_string(d.snapshot) + ") has no overlapping writer");
    }
  }
  return bad;
}

// A small workload whose updates collide: every update writes two of the 64
// rows of a 4-page hot table, plus one row of a larger cold table.
Workload HotRows() {
  Workload w;
  w.name = "HotRows";
  const RelationId hot = w.schema.AddTable("hot", PagesToBytes(4));
  const RelationId cold = w.schema.AddTable("cold", 8 * kMiB);
  TxnType update;
  update.name = "Update";
  update.base_cpu = Millis(5);
  update.writeset_bytes = 200;
  update.plan.steps = {Random(cold, 2), Write(hot, 0, 2), Write(cold, 0, 1)};
  w.registry.Add(update);
  TxnType read;
  read.name = "Read";
  read.base_cpu = Millis(5);
  read.plan.steps = {Random(cold, 4), Random(hot, 1)};
  w.registry.Add(read);
  w.mixes.emplace_back("mixed", std::vector<double>{0.5, 0.5});
  return w;
}

ClusterConfig OracleConfig() {
  ClusterConfig config;
  config.replicas = 4;
  config.clients_per_replica = 4;
  config.mean_think = Millis(50);
  config.seed = 7;
  config.checkpoint.prune_period = Seconds(1.0);
  return config;
}

RetryPolicy OracleRetry() {
  RetryPolicy retry;
  retry.enabled = true;
  retry.timeout = Millis(2);
  retry.backoff_base = Micros(500);
  retry.backoff_max = Millis(50);
  return retry;
}

void ExpectGsi(const Cluster& cluster, const std::vector<Certifier::Decision>& history) {
  size_t commits = 0;
  for (const Certifier::Decision& d : history) {
    commits += d.committed ? 1 : 0;
  }
  // The history is complete, and both verdicts occur.
  EXPECT_EQ(commits, cluster.certifier().certified_count());
  EXPECT_EQ(history.size() - commits, cluster.certifier().aborted_count());
  EXPECT_GT(commits, 500u);
  EXPECT_GT(history.size() - commits, 20u);
  const std::vector<std::string> bad = GsiViolations(history);
  EXPECT_TRUE(bad.empty()) << bad.size() << " GSI violations, first: " << bad.front();
}

TEST(GsiOracle, ChurnScriptWithAutoPrune) {
  const Workload w = HotRows();
  Cluster cluster(w, "mixed", "LeastConnections", OracleConfig());
  std::vector<Certifier::Decision> history;
  cluster.certifier().RecordDecisions(&history);
  cluster.Advance(Seconds(10.0));
  cluster.KillReplica(1);
  cluster.Advance(Seconds(5.0));
  cluster.RecoverReplica(1);
  cluster.Advance(Seconds(5.0));
  cluster.AddReplica();
  cluster.KillReplica(2);
  cluster.Advance(Seconds(5.0));
  cluster.RecoverReplica(2);
  cluster.Advance(Seconds(10.0));
  ExpectGsi(cluster, history);
  // Pruning really ran: the index holds fewer rows than were ever written.
  EXPECT_GT(cluster.certifier().log_pruned_below(), 0u);
  EXPECT_LT(cluster.certifier().conflict_rows(), 2 * cluster.certifier().certified_count());
}

TEST(GsiOracle, CertifierFailoverWithRetryAndAutoPrune) {
  const Workload w = HotRows();
  ClusterConfig config = OracleConfig();
  config.proxy.retry = OracleRetry();
  config.faults.drop = 0.02;
  config.faults.duplicate = 0.02;
  Cluster cluster(w, "mixed", "LeastConnections", config);
  std::vector<Certifier::Decision> history;
  cluster.certifier().RecordDecisions(&history);
  cluster.Advance(Seconds(10.0));
  cluster.CrashCertifier();
  cluster.Advance(Seconds(3.0));  // writes park and back off across prune ticks
  cluster.FailoverCertifier();
  cluster.Advance(Seconds(10.0));
  cluster.CrashCertifier();
  cluster.Advance(Seconds(2.0));
  cluster.FailoverCertifier();
  cluster.Advance(Seconds(10.0));
  EXPECT_EQ(cluster.certifier().failovers(), 2u);
  EXPECT_GT(cluster.certifier().dedup_hits(), 0u);
  ExpectGsi(cluster, history);
}

// A lost certification backs off for five prune periods while its replica
// keeps certifying other transactions and applying remote writesets, so the
// replica's applied version — the certifier log's prune floor — passes the
// parked certification's snapshot. Rows written in between must survive the
// prune ticks, or the retried certification commits over a conflict.
TEST(GsiOracle, LongParkedSnapshotAcrossPruneTicks) {
  const Workload w = HotRows();
  ClusterConfig config = OracleConfig();
  config.checkpoint.prune_period = Millis(200);
  config.proxy.retry = OracleRetry();
  config.proxy.retry.backoff_base = Seconds(1.0);
  config.proxy.retry.backoff_max = Seconds(1.0);
  config.proxy.retry.jitter = 0.0;
  config.faults.drop = 0.02;
  Cluster cluster(w, "mixed", "LeastConnections", config);
  std::vector<Certifier::Decision> history;
  cluster.certifier().RecordDecisions(&history);

  // Observe at every prune period: a proxy whose oldest parked snapshot
  // stays below its (advancing) applied version for two periods in a row
  // held that snapshot across at least two prune ticks.
  constexpr Version kNone = UINT64_MAX;
  const size_t n = cluster.proxies().size();
  std::vector<Version> held(n, kNone);
  std::vector<Version> applied_then(n, 0);
  std::vector<int> periods(n, 0);
  int longest = 0;
  for (int tick = 0; tick < 150; ++tick) {
    cluster.Advance(config.checkpoint.prune_period);
    for (size_t i = 0; i < n; ++i) {
      const Proxy& p = *cluster.proxies()[i];
      const Version s = p.snapshot_floor();
      if (s < p.applied_version() && s == held[i] && p.applied_version() > applied_then[i]) {
        longest = std::max(longest, ++periods[i]);
      } else {
        periods[i] = 0;
      }
      held[i] = s < p.applied_version() ? s : kNone;
      applied_then[i] = p.applied_version();
    }
  }
  EXPECT_GE(longest, 2) << "no certification stayed parked across two prune ticks";
  EXPECT_GT(cluster.certifier().log_pruned_below(), 0u);
  ExpectGsi(cluster, history);
}

// --- the bound -----------------------------------------------------------------

// One simulated hour of 8-replica TPC-W ordering in 10-minute windows: with
// auto-pruning the conflict index's high-water mark stays flat (unpruned it
// grew linearly, about 15k rows per window).
TEST(BoundedConflictIndex, OneHourOfOrderingStaysFlat) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  ClusterConfig config;
  config.replicas = 8;
  config.clients_per_replica = 6;
  Cluster cluster(w, kTpcwOrdering, "MALB-SC", config);
  std::vector<uint64_t> hwm;
  for (int window = 0; window < 6; ++window) {
    hwm.push_back(cluster.Measure(Seconds(600.0)).conflict_rows_hwm);
  }
  ASSERT_GT(hwm.front(), 0u);
  EXPECT_LE(static_cast<double>(hwm.back()), 1.5 * static_cast<double>(hwm.front()))
      << "first window " << hwm.front() << " rows, last window " << hwm.back();
  EXPECT_GT(cluster.certifier().certified_count(), 10 * hwm.back());
}

}  // namespace
}  // namespace tashkent
