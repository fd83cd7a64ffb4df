// Fault-injection fabric: deterministic channel fault plans, the proxy's
// timeout/backoff/retry protocol with generation guards, certifier failover
// with epoch fencing, and the cluster-level zero-loss ledger. Companion to
// the `faults` campaign (bench/bench_faults.cc) — the campaign gates the
// invariants at scale, these tests pin the corner cases one message at a
// time.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/certifier/channel.h"
#include "src/cluster/cluster.h"
#include "src/cluster/mutator.h"
#include "src/proxy/proxy.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

// --- channel fault plans -----------------------------------------------------

struct ArrivalLog {
  Simulator* sim = nullptr;
  std::vector<std::pair<int, SimTime>> hits;
};

// The fault schedule is a pure function of the seed: same plan + same seed =
// the same messages dropped, delayed, and duplicated at the same times.
TEST(FaultPlan, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    CertifierChannel channel(&sim, /*batch_arrivals=*/true);
    FaultPlan plan;
    plan.drop = 0.3;
    plan.duplicate = 0.2;
    plan.delay_probability = 0.5;
    plan.delay_mean = Micros(300);
    channel.ArmFaults(plan, Rng(seed));
    ArrivalLog log;
    log.sim = &sim;
    for (int i = 0; i < 200; ++i) {
      sim.ScheduleAt(i * 10, [ch = &channel, lg = &log, i]() {
        ch->ScheduleArrival(
            100, [lg, i]() { lg->hits.push_back({i, lg->sim->Now()}); }, /*sender=*/0);
      });
    }
    sim.RunAll();
    return std::make_pair(log.hits, channel.fault_stats());
  };

  const auto [hits_a, stats_a] = run(99);
  const auto [hits_b, stats_b] = run(99);
  EXPECT_EQ(hits_a, hits_b);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.delayed, stats_b.delayed);
  // The plan actually bites (all three fault kinds fired on 200 messages).
  EXPECT_GT(stats_a.dropped, 0u);
  EXPECT_GT(stats_a.duplicated, 0u);
  EXPECT_GT(stats_a.delayed, 0u);

  // A different seed reshuffles the schedule.
  const auto [hits_c, stats_c] = run(100);
  EXPECT_NE(hits_a, hits_c);
}

// An unarmed plan leaves the channel on the exact pre-fault path: no draws,
// no fault accounting, every arrival delivered.
TEST(FaultPlan, UnarmedPlanIsInert) {
  Simulator sim;
  CertifierChannel channel(&sim, /*batch_arrivals=*/true);
  channel.ArmFaults(FaultPlan{}, Rng(7));  // not armed(): ignored
  EXPECT_FALSE(channel.faults_armed());
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    channel.ScheduleArrival(100, [&delivered]() { ++delivered; }, /*sender=*/0);
  }
  sim.RunAll();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(channel.arrivals(), 50u);
  EXPECT_EQ(channel.fault_stats().dropped, 0u);
}

// Partition windows drop deterministically — no draw spent — and only for
// the targeted sender inside [from, to).
TEST(FaultPlan, PartitionWindowDropsOnlyTargetedSender) {
  Simulator sim;
  CertifierChannel channel(&sim, /*batch_arrivals=*/true);
  channel.AddPartition(/*sender=*/0, /*from=*/100, /*to=*/300);
  std::vector<int> delivered;
  auto submit = [&](SimTime at, int id, uint32_t sender) {
    sim.ScheduleAt(at, [&channel, &delivered, id, sender]() {
      channel.ScheduleArrival(10, [&delivered, id]() { delivered.push_back(id); }, sender);
    });
  };
  submit(50, 1, 0);    // before the window: delivered
  submit(150, 2, 0);   // inside, targeted sender: dropped
  submit(150, 3, 1);   // inside, other sender: delivered
  submit(300, 5, 0);   // window is half-open: to is outside
  sim.RunAll();
  EXPECT_EQ(delivered, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(channel.fault_stats().partition_dropped, 1u);
  EXPECT_EQ(channel.fault_stats().dropped, 0u);  // no probability draws spent
}

// --- proxy retry protocol: one message at a time -----------------------------

RetryPolicy TestRetry() {
  RetryPolicy retry;
  retry.enabled = true;
  retry.timeout = Millis(2);
  retry.backoff_base = Micros(500);
  retry.backoff_max = Millis(50);
  retry.jitter = 0.2;
  return retry;
}

class FaultProxyTest : public ::testing::Test {
 protected:
  FaultProxyTest() {
    table_ = schema_.AddTable("t", MiB(8));
    ReplicaConfig rc;
    rc.memory = 64 * kMiB;
    rc.reserved = 0;
    channel_ = std::make_unique<CertifierChannel>(&sim_, /*batch_arrivals=*/true);
    replica_ = std::make_unique<Replica>(&sim_, &schema_, 0, rc, Rng(1));
    BuildProxy(TestRetry());

    update_.name = "update";
    update_.id = 1;
    update_.base_cpu = Millis(1);
    update_.writeset_bytes = 275;
    update_.plan.steps = {Write(table_, 1, 2)};
  }

  // (Re)builds the proxy with `retry` as its ProxyConfig::retry, armed.
  void BuildProxy(const RetryPolicy& retry) {
    ProxyConfig pc;
    pc.max_in_flight = 4;
    pc.retry = retry;
    proxy_ = std::make_unique<Proxy>(&sim_, replica_.get(), &certifier_, pc, channel_.get());
    proxy_->ArmRetry(Rng(7));
  }

  Simulator sim_;
  Schema schema_;
  RelationId table_ = 0;
  Certifier certifier_;
  std::unique_ptr<CertifierChannel> channel_;
  std::unique_ptr<Replica> replica_;
  std::unique_ptr<Proxy> proxy_;
  TxnType update_;
};

// Channel duplicates the certification response. The first copy is accepted
// and retires the slot; the second finds a stale generation and resolves as a
// duplicate against the certifier's window — the client commits exactly once.
TEST_F(FaultProxyTest, DuplicateArrivalAfterCommitIsAbsorbed) {
  FaultPlan plan;
  plan.duplicate = 1.0;  // every message delivered twice
  channel_->ArmFaults(plan, Rng(3));

  int commits = 0;
  proxy_->SubmitTransaction(update_, [&](bool ok) { commits += ok ? 1 : 0; });
  sim_.RunAll();

  EXPECT_EQ(commits, 1);
  EXPECT_EQ(proxy_->lifetime_update_commits(), 1u);
  EXPECT_EQ(certifier_.certified_count(), 1u);  // certified exactly once
  EXPECT_EQ(proxy_->stats().stale_responses, 1u);
  EXPECT_EQ(certifier_.dedup_hits(), 1u);
  EXPECT_EQ(channel_->fault_stats().duplicated, 1u);
}

// Retry racing failover: the certifier is down when the transaction first
// asks, timeouts drive backoff retries, and the retry that lands after the
// failover carries the OLD epoch — it is fenced (never certified at the old
// epoch) and immediately resent against the new primary.
TEST_F(FaultProxyTest, RetryRacingFailoverIsFencedThenCommits) {
  certifier_.Crash();
  int commits = 0;
  proxy_->SubmitTransaction(update_, [&](bool ok) { commits += ok ? 1 : 0; });
  sim_.ScheduleAt(Millis(100), [this]() { certifier_.Failover(); });
  sim_.RunAll();

  EXPECT_EQ(commits, 1);
  EXPECT_EQ(certifier_.epoch(), 2u);
  EXPECT_EQ(proxy_->known_epoch(), 2u);        // learned from the fence
  EXPECT_GE(proxy_->stats().cert_timeouts, 1u);  // downtime attempts timed out
  EXPECT_EQ(proxy_->stats().fenced, 1u);         // old-epoch response refused
  EXPECT_EQ(certifier_.certified_count(), 1u);   // and certified exactly once
  EXPECT_EQ(certifier_.dedup_hits(), 0u);        // the fence never certifies
}

// Timeout fires while the (slow but undropped) response is still in flight:
// the response then lands first and is accepted — the already-scheduled
// backoff resend finds a stale generation and never goes out.
TEST_F(FaultProxyTest, TimeoutRacingLateResponseCommitsOnce) {
  RetryPolicy hair_trigger = TestRetry();
  hair_trigger.timeout = Micros(200);  // below the 440 us certification RTT
  BuildProxy(hair_trigger);

  int commits = 0;
  proxy_->SubmitTransaction(update_, [&](bool ok) { commits += ok ? 1 : 0; });
  sim_.RunAll();

  EXPECT_EQ(commits, 1);
  EXPECT_EQ(proxy_->stats().cert_timeouts, 1u);
  EXPECT_EQ(proxy_->stats().cert_retries, 1u);   // a resend was scheduled...
  EXPECT_EQ(channel_->arrivals(), 1u);           // ...but never submitted
  EXPECT_EQ(certifier_.certified_count(), 1u);
  EXPECT_EQ(certifier_.dedup_hits(), 0u);
}

// Messages dropped outright: every attempt but the surviving one is lost and
// the transaction still commits exactly once, after observable retries.
TEST_F(FaultProxyTest, DropStormRetriesUntilCommit) {
  FaultPlan plan;
  plan.drop = 0.7;
  channel_->ArmFaults(plan, Rng(11));

  int commits = 0;
  proxy_->SubmitTransaction(update_, [&](bool ok) { commits += ok ? 1 : 0; });
  sim_.RunAll();

  EXPECT_EQ(commits, 1);
  EXPECT_EQ(certifier_.certified_count(), 1u);
  EXPECT_EQ(proxy_->stats().cert_retries, proxy_->stats().cert_timeouts);
  EXPECT_EQ(channel_->fault_stats().dropped,
            proxy_->stats().cert_timeouts);  // every timeout was a real loss
}

// --- cluster-level: inertness, partitions, failover --------------------------

ClusterConfig MiniConfig(bool retry) {
  ClusterConfig config;
  config.replicas = 3;
  config.clients_per_replica = 3;
  config.seed = 42;
  config.proxy.retry = TestRetry();
  config.proxy.retry.enabled = retry;
  return config;
}

struct MiniRun {
  ExperimentResult result;
  uint64_t executed_events = 0;
};

MiniRun RunMini(bool retry_armed) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", MiniConfig(retry_armed));
  cluster.Advance(Seconds(30.0));
  MiniRun run;
  run.result = cluster.Measure(Seconds(60.0));
  run.executed_events = cluster.sim().executed_events();
  return run;
}

// The retry protocol armed under an empty fault plan is byte-inert: identical
// results AND an identical executed-event count (the per-attempt timeout is
// always cancelled, and cancelled events are not executed).
TEST(FaultCluster, ArmedRetryUnderEmptyPlanIsByteInert) {
  const MiniRun plain = RunMini(false);
  const MiniRun armed = RunMini(true);
  EXPECT_EQ(DifferingMetrics(armed.result, plain.result), std::vector<std::string>{});
  EXPECT_EQ(armed.executed_events, plain.executed_events);
  // And the armed run's fault counters are all zero.
  EXPECT_EQ(armed.result.cert_timeouts, 0u);
  EXPECT_EQ(armed.result.cert_retries, 0u);
  EXPECT_EQ(armed.result.msgs_dropped, 0u);
  EXPECT_EQ(armed.result.dedup_hits, 0u);
}

// Per-cluster zero-loss ledger (the campaign's CI-gated invariant, in-test):
// every certified commit is acknowledged or still in flight, and nothing is
// acknowledged twice.
void ExpectZeroLoss(const Cluster& cluster) {
  uint64_t completed = 0;
  uint64_t bound = 0;
  for (const auto& proxy : cluster.proxies()) {
    completed += proxy->lifetime_update_commits();
    bound += static_cast<uint64_t>(proxy->max_in_flight());
  }
  const uint64_t certified = cluster.certifier().certified_count();
  EXPECT_LE(completed, certified);
  EXPECT_LE(certified - completed, bound);
}

// A one-way link partition starves one proxy's certifications; its writes
// queue behind the gatekeeper, retries drain them after the heal, and the
// ledger still balances.
TEST(FaultCluster, PartitionHealsWithoutLosingCommits) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", MiniConfig(true));
  cluster.Advance(Seconds(30.0));
  cluster.PartitionProxy(0, Seconds(5.0));
  const ExperimentResult r = cluster.Measure(Seconds(60.0));
  EXPECT_GT(r.msgs_dropped, 0u);  // the partition really dropped messages
  EXPECT_GT(r.cert_timeouts, 0u);
  EXPECT_GT(r.committed, 0u);
  // The partitioned proxy finished its queued writes after the heal.
  EXPECT_GT(cluster.proxies()[0]->lifetime_update_commits(), 0u);
  ExpectZeroLoss(cluster);
}

// Crash -> degraded window -> failover: writes queue during the outage, the
// standby takes over at a new epoch, stale responses are fenced, commits
// resume, and the ledger balances across the whole life.
TEST(FaultCluster, CrashFailoverResumesAtNewEpochWithZeroLoss) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", MiniConfig(true));
  cluster.Advance(Seconds(30.0));
  const uint64_t before = cluster.certifier().certified_count();

  cluster.CrashCertifier();
  EXPECT_FALSE(cluster.certifier().serving());
  cluster.Advance(Seconds(5.0));  // outage: timeouts, backoff, queued writes
  EXPECT_EQ(cluster.certifier().certified_count(), before);  // nothing decided

  cluster.FailoverCertifier();
  EXPECT_TRUE(cluster.certifier().serving());
  EXPECT_EQ(cluster.certifier().epoch(), 2u);
  const ExperimentResult r = cluster.Measure(Seconds(60.0));
  EXPECT_GT(r.committed, 0u);                  // traffic resumed
  EXPECT_GT(r.fenced, 0u);                     // old-epoch responses refused
  EXPECT_GT(cluster.certifier().certified_count(), before);
  ExpectZeroLoss(cluster);
}

// The verbs that lose messages refuse an unarmed cluster: without retry
// nothing would time out and resend what they drop. Each throws before it
// touches anything, so the cluster carries on as if it was never called.
TEST(FaultCluster, LossyVerbsThrowWithoutRetry) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", MiniConfig(false));
  cluster.Advance(Seconds(30.0));
  EXPECT_THROW(cluster.CrashCertifier(), std::logic_error);
  EXPECT_THROW(cluster.PartitionProxy(0, Seconds(30.0)), std::logic_error);
  EXPECT_TRUE(cluster.certifier().serving());
  const ExperimentResult r = cluster.Measure(Seconds(20.0));
  EXPECT_EQ(r.cert_crashes, 0u);
  EXPECT_EQ(r.msgs_dropped, 0u);
  EXPECT_GT(r.committed, 0u);
  ExpectZeroLoss(cluster);
}

// A planned handover needs no retry: the primary still serves, so requests
// stamped with the old epoch are fenced and resent at once, never stranded.
TEST(FaultCluster, PlannedFailoverWithoutRetryFencesAndCommits) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", MiniConfig(false));
  ClusterMutator mutator(&cluster);
  cluster.Advance(Seconds(30.0));
  const uint64_t before = cluster.certifier().certified_count();
  // Fail over mid-window, while certifications are in flight.
  mutator.At(Seconds(10.0), FailoverCertifier{});
  const ExperimentResult r = cluster.Measure(Seconds(60.0));
  EXPECT_EQ(cluster.certifier().epoch(), 2u);
  EXPECT_EQ(r.cert_failovers, 1u);
  EXPECT_GT(r.fenced, 0u);
  EXPECT_EQ(r.cert_timeouts, 0u);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(cluster.certifier().certified_count(), before);
  ExpectZeroLoss(cluster);
}

// The downtime clock: a measure window that spans the outage accounts it.
TEST(FaultCluster, DowntimeIsAccountedInsideTheWindow) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Cluster cluster(w, kTpcwOrdering, "LeastConnections", MiniConfig(true));
  ClusterMutator mutator(&cluster);
  cluster.Advance(Seconds(30.0));
  mutator.At(Seconds(10.0), CrashCertifier{});
  mutator.At(Seconds(18.0), FailoverCertifier{});
  const ExperimentResult r = cluster.Measure(Seconds(60.0));
  EXPECT_EQ(r.cert_crashes, 1u);
  EXPECT_EQ(r.cert_failovers, 1u);
  EXPECT_NEAR(r.cert_downtime_s, 8.0, 0.01);
  EXPECT_GE(r.failover_recovery_s, 0.0);
  EXPECT_GT(r.committed, 0u);
}

}  // namespace
}  // namespace tashkent
