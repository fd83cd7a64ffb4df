// Unit tests for the proxy: Gatekeeper admission, certification round trips,
// ordered writeset application, update filtering, pulls and prods.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/alloc_guard.h"
#include "src/proxy/gatekeeper.h"
#include "src/proxy/proxy.h"

namespace tashkent {
namespace {

TEST(Gatekeeper, AdmitsUpToLimit) {
  Gatekeeper g(2);
  EXPECT_TRUE(g.Admit(10));
  EXPECT_TRUE(g.Admit(11));
  EXPECT_FALSE(g.Admit(12));
  EXPECT_EQ(g.in_flight(), 2);
  EXPECT_EQ(g.queued(), 1u);
  EXPECT_EQ(g.outstanding(), 3u);
  EXPECT_EQ(g.Release(), 12u);  // the freed slot passes to the queued ticket
  EXPECT_EQ(g.in_flight(), 2);
  EXPECT_EQ(g.outstanding(), 2u);
  EXPECT_EQ(g.Release(), kNilSlot);
  EXPECT_EQ(g.Release(), kNilSlot);
  EXPECT_EQ(g.outstanding(), 0u);
}

TEST(Gatekeeper, FifoOrder) {
  Gatekeeper g(1);
  std::vector<uint32_t> order;
  for (uint32_t ticket = 0; ticket < 3; ++ticket) {
    if (g.Admit(ticket)) {
      order.push_back(ticket);
    }
  }
  for (int i = 0; i < 3; ++i) {
    const uint32_t next = g.Release();
    if (next != kNilSlot) {
      order.push_back(next);
    }
  }
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Gatekeeper, ReleaseWithoutAdmitThrows) {
  Gatekeeper g(2);
  EXPECT_THROW(g.Release(), std::logic_error);
  EXPECT_EQ(g.outstanding(), 0u);
  g.Admit(0);
  g.Release();
  EXPECT_THROW(g.Release(), std::logic_error);
  EXPECT_EQ(g.outstanding(), 0u);
}

// The idle sets follow the count through the queue and back: the zero bit
// at 0, the one bit at 1, neither above.
TEST(Gatekeeper, IdleSetsFollowOutstanding) {
  IdleSets sets;
  sets.Resize(70);
  Gatekeeper g(1);
  g.Admit(0);  // counted before the attach: Assign reads it
  g.AttachIdleSets(&sets, 69);
  const auto check = [&] {
    EXPECT_EQ(sets.zero(69), g.outstanding() == 0) << g.outstanding();
    EXPECT_EQ(sets.one(69), g.outstanding() == 1) << g.outstanding();
  };
  check();
  for (uint32_t i = 1; i <= 3; ++i) {
    g.Admit(i);
    check();
  }
  for (int i = 0; i < 4; ++i) {
    g.Release();
    check();
  }
  EXPECT_FALSE(sets.zero(68));
  EXPECT_EQ(sets.Lowest(0, [](size_t) { return true; }), 69u);
  EXPECT_EQ(sets.Lowest(1, [](size_t) { return true; }), IdleSets::kNone);
  EXPECT_EQ(sets.Lowest(0, [](size_t) { return false; }), IdleSets::kNone);

  // Re-attaching elsewhere supersedes the first set; detaching by a set the
  // gatekeeper no longer reports to changes nothing.
  IdleSets other;
  other.Resize(1);
  g.AttachIdleSets(&other, 0);
  EXPECT_TRUE(sets.superseded());
  EXPECT_FALSE(other.superseded());
  g.DetachIdleSets(&sets);
  g.Admit(4);
  EXPECT_TRUE(other.one(0));
  g.DetachIdleSets(&other);
  g.Release();
  EXPECT_TRUE(other.one(0));  // no longer reported
}

class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() {
    table_a_ = schema_.AddTable("a", MiB(8));
    table_b_ = schema_.AddTable("b", MiB(8));
    ReplicaConfig rc;
    rc.memory = 64 * kMiB;
    rc.reserved = 0;
    for (ReplicaId r = 0; r < 2; ++r) {
      replicas_.push_back(std::make_unique<Replica>(&sim_, &schema_, r, rc, Rng(r + 1)));
      proxies_.push_back(
          std::make_unique<Proxy>(&sim_, replicas_.back().get(), &certifier_, ProxyConfig{4, {}}));
    }
    certifier_.SetProdCallback([this](ReplicaId r) { proxies_[r]->OnProd(); });

    read_.name = "read";
    read_.id = 0;
    read_.base_cpu = Millis(1);
    read_.plan.steps = {Random(table_a_, 2)};

    update_a_.name = "update_a";
    update_a_.id = 1;
    update_a_.base_cpu = Millis(1);
    update_a_.writeset_bytes = 275;
    update_a_.plan.steps = {Write(table_a_, 1, 2)};

    update_b_.name = "update_b";
    update_b_.id = 2;
    update_b_.base_cpu = Millis(1);
    update_b_.writeset_bytes = 275;
    update_b_.plan.steps = {Write(table_b_, 1, 2)};
  }

  Simulator sim_;
  Schema schema_;
  RelationId table_a_ = 0, table_b_ = 0;
  Certifier certifier_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  TxnType read_, update_a_, update_b_;
};

TEST_F(ProxyTest, ReadOnlyCommitsLocally) {
  bool committed = false;
  proxies_[0]->SubmitTransaction(read_, [&](bool ok) { committed = ok; });
  sim_.RunAll();
  EXPECT_TRUE(committed);
  EXPECT_EQ(certifier_.certified_count(), 0u);  // never contacted
  EXPECT_EQ(proxies_[0]->stats().read_only, 1u);
}

TEST_F(ProxyTest, UpdateGoesThroughCertifier) {
  bool committed = false;
  proxies_[0]->SubmitTransaction(update_a_, [&](bool ok) { committed = ok; });
  sim_.RunAll();
  EXPECT_TRUE(committed);
  EXPECT_EQ(certifier_.certified_count(), 1u);
  EXPECT_EQ(proxies_[0]->applied_version(), 1u);
  EXPECT_EQ(proxies_[0]->stats().committed, 1u);
}

TEST_F(ProxyTest, RemoteWritesetsApplyBeforeLocalCommit) {
  // Replica 0 commits two updates; replica 1 then commits one and must apply
  // replica 0's first.
  proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  sim_.RunAll();
  proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  sim_.RunAll();
  EXPECT_EQ(proxies_[1]->stats().writesets_applied, 0u);

  proxies_[1]->SubmitTransaction(update_b_, [](bool) {});
  sim_.RunAll();
  EXPECT_EQ(proxies_[1]->stats().writesets_applied, 2u);
  EXPECT_EQ(proxies_[1]->applied_version(), 3u);
  EXPECT_EQ(replicas_[1]->stats().writesets_applied, 2u);
}

TEST_F(ProxyTest, FilteringSkipsUnsubscribedTables) {
  // Replica 1 subscribes only to table b; replica 0's updates to a are
  // filtered, but the version still advances.
  proxies_[1]->SetSubscription(TableMask{table_b_});
  proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  sim_.RunAll();
  proxies_[1]->SubmitTransaction(update_b_, [](bool) {});
  sim_.RunAll();
  EXPECT_EQ(proxies_[1]->stats().writesets_filtered, 1u);
  EXPECT_EQ(proxies_[1]->stats().writesets_applied, 0u);
  EXPECT_EQ(proxies_[1]->applied_version(), 2u);
  EXPECT_EQ(replicas_[1]->stats().writesets_applied, 0u);
}

TEST_F(ProxyTest, PeriodicPullKeepsIdleReplicaCurrent) {
  proxies_[1]->StartDaemons();
  proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  sim_.RunUntil(Seconds(2.0));
  // Replica 1 never ran a transaction but pulled the update.
  EXPECT_EQ(proxies_[1]->applied_version(), 1u);
  EXPECT_GE(proxies_[1]->stats().pulls, 1u);
}

TEST_F(ProxyTest, ProdTriggersPullWhenFarBehind) {
  // Make replica 1 known to the certifier, then push many commits from
  // replica 0 quickly; the prod threshold (default 25) fires a pull without
  // waiting for the 500 ms timer.
  proxies_[1]->SubmitTransaction(read_, [](bool) {});
  sim_.RunAll();
  certifier_.Pull(1, 0);
  for (int i = 0; i < 30; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  // No periodic pull daemon is running on proxy 1, so any catch-up before
  // the run drains must come from the prod path.
  sim_.RunUntil(Seconds(2.0));
  EXPECT_GE(proxies_[1]->stats().prods, 1u);
  EXPECT_GT(proxies_[1]->applied_version(), 0u);
}

TEST_F(ProxyTest, CertificationConflictAborts) {
  // Two replicas write the same hot row concurrently. Force overlap by using
  // a single-page table so row keys collide frequently.
  Schema tiny;
  const RelationId hot = tiny.AddTable("hot", PagesToBytes(1));
  ReplicaConfig rc;
  rc.memory = 16 * kMiB;
  rc.reserved = 0;
  Simulator sim;
  Certifier cert;
  Replica r0(&sim, &tiny, 0, rc, Rng(1));
  Replica r1(&sim, &tiny, 1, rc, Rng(2));
  Proxy p0(&sim, &r0, &cert);
  Proxy p1(&sim, &r1, &cert);
  TxnType hot_update;
  hot_update.name = "hot";
  hot_update.id = 0;
  hot_update.writeset_bytes = 100;
  hot_update.plan.steps = {Write(hot, 0, 8)};  // 8 of 16 possible keys each

  int aborts = 0;
  for (int i = 0; i < 50; ++i) {
    p0.SubmitTransaction(hot_update, [&](bool ok) { aborts += ok ? 0 : 1; });
    p1.SubmitTransaction(hot_update, [&](bool ok) { aborts += ok ? 0 : 1; });
  }
  sim.RunAll();
  EXPECT_GT(aborts, 0);  // concurrent hot-row writers must conflict sometimes
  EXPECT_EQ(cert.aborted_count(), static_cast<uint64_t>(aborts));
}

TEST_F(ProxyTest, GatekeeperLimitsConcurrency) {
  for (int i = 0; i < 20; ++i) {
    proxies_[0]->SubmitTransaction(read_, [](bool) {});
  }
  EXPECT_EQ(proxies_[0]->outstanding(), 20u);
  EXPECT_LE(proxies_[0]->max_in_flight(), 4);
  sim_.RunAll();
  EXPECT_EQ(proxies_[0]->outstanding(), 0u);
  EXPECT_EQ(proxies_[0]->stats().read_only, 20u);
}

// --- interest-mask update filtering ------------------------------------------

// Runs one churn scenario — three replicas, eight tables, scripted update
// traffic from replica 0, randomized subscription churn on replicas 1/2
// (including mid-run SetSubscription while writesets are in flight), and a
// crash/recover arc on replica 2 so the batched recovery replay runs — and
// returns a digest of everything user-visible.
std::vector<uint64_t> RunChurnScenario() {
  Simulator sim;
  Schema schema;
  std::vector<RelationId> tables;
  for (int t = 0; t < 8; ++t) {
    tables.push_back(schema.AddTable("t" + std::to_string(t), MiB(4)));
  }
  Certifier cert;
  ReplicaConfig rc;
  rc.memory = 64 * kMiB;
  rc.reserved = 0;
  ProxyConfig pc;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<Proxy>> proxies;
  for (ReplicaId r = 0; r < 3; ++r) {
    replicas.push_back(std::make_unique<Replica>(&sim, &schema, r, rc, Rng(r + 1)));
    proxies.push_back(std::make_unique<Proxy>(&sim, replicas.back().get(), &cert, pc));
  }
  cert.SetProdCallback([&proxies](ReplicaId r) { proxies[r]->OnProd(); });

  std::vector<TxnType> updates;
  for (int t = 0; t < 8; ++t) {
    TxnType ty;
    ty.name = "upd" + std::to_string(t);
    ty.id = static_cast<TxnTypeId>(t);
    ty.base_cpu = Millis(1);
    ty.writeset_bytes = 275;
    ty.plan.steps = {Write(tables[static_cast<size_t>(t)], 1, 2)};
    updates.push_back(ty);
  }

  // Precompute every random choice (the Rng is consumed here, before any
  // scheduling).
  Rng rng(42);
  std::vector<size_t> table_of;  // table written by update i
  for (int i = 0; i < 300; ++i) {
    table_of.push_back(rng.NextBelow(8));
  }
  // Six churn events: (time ms, proxy 1 or 2, new subscription).
  struct Churn {
    int at_ms;
    size_t proxy;
    TableMask sub;
  };
  std::vector<Churn> churns;
  for (int c = 0; c < 6; ++c) {
    Churn ch;
    ch.at_ms = 30 + c * 45;
    ch.proxy = 1 + rng.NextBelow(2);
    const uint64_t width = 1 + rng.NextBelow(4);
    for (uint64_t w = 0; w < width; ++w) {
      ch.sub.Set(tables[rng.NextBelow(8)]);
    }
    churns.push_back(std::move(ch));
  }

  // Initial narrow subscriptions; the bootstrap prod registers each
  // subscriber with the certifier so real prods reach it (no daemons here).
  proxies[1]->SetSubscription(TableMask{tables[0], tables[1]});
  proxies[2]->SetSubscription(TableMask{tables[2], tables[3]});
  proxies[1]->OnProd();
  proxies[2]->OnProd();

  for (int i = 0; i < 300; ++i) {
    sim.ScheduleAt(Millis(i + 1), [&proxies, &updates, &table_of, i]() {
      proxies[0]->SubmitTransaction(updates[table_of[static_cast<size_t>(i)]],
                                    [](bool) {});
    });
  }
  for (const Churn& ch : churns) {
    sim.ScheduleAt(Millis(ch.at_ms), [&proxies, &ch]() {
      proxies[ch.proxy]->SetSubscription(ch.sub);
    });
  }
  // Crash replica 2 mid-stream and recover it with most of the log pending,
  // so the batched replay (and its chunk skip-scan) does real work.
  sim.ScheduleAt(Millis(80), [&proxies]() { proxies[2]->Crash(); });
  sim.ScheduleAt(Millis(320), [&proxies]() { proxies[2]->Recover(); });
  sim.RunAll();
  // One final explicit prod per subscriber drains any sub-threshold lag.
  proxies[1]->OnProd();
  proxies[2]->OnProd();
  sim.RunAll();

  std::vector<uint64_t> digest;
  for (ReplicaId r = 0; r < 3; ++r) {
    const ProxyStats& s = proxies[r]->stats();
    // Everything user-visible — deliberately NOT mask_skipped, which counts
    // how a filtering decision was reached, not the decision.
    digest.insert(digest.end(),
                  {proxies[r]->applied_version(), s.committed, s.aborted,
                   s.writesets_applied, s.writesets_filtered, s.replay_applied,
                   s.replay_filtered, s.recoveries, s.pulls, s.prods,
                   replicas[r]->stats().writesets_applied});
  }
  return digest;
}

// The digest is pinned to the one that the mask path and a per-entry
// TouchesAny filter both produced when the two still ran side by side; any
// change to what filtering decides, or to when replay applies, moves it.
TEST(ProxyMaskFiltering, ChurnScenarioMatchesPinnedDigest) {
  const std::vector<uint64_t> digest = RunChurnScenario();
  // Per replica: applied version, committed, aborted, writesets applied,
  // filtered, replay applied, replay filtered, recoveries, pulls, prods, and
  // the replica's own applied count.
  const std::vector<uint64_t> pinned = {
      300, 300, 0, 0,   0,   0, 0,  0, 0,  0,  0,    //
      300, 0,   0, 119, 181, 0, 0,  0, 26, 26, 119,  //
      300, 0,   0, 61,  239, 3, 7,  1, 26, 24, 61,   //
  };
  EXPECT_EQ(digest, pinned);
  // The scenario actually exercised filtering and recovery replay: committed
  // updates, filtered writesets, and a completed recovery all present.
  uint64_t filtered = 0, recoveries = 0;
  for (size_t r = 0; r < 3; ++r) {
    filtered += digest[r * 11 + 4];
    recoveries += digest[r * 11 + 7];
  }
  EXPECT_GT(filtered, 0u);
  EXPECT_EQ(recoveries, 1u);
}

TEST_F(ProxyTest, MaskSkipEngagesOnNarrowSubscription) {
  // 600 updates to table a against a {b}-only subscriber: once the log holds
  // whole chunks of unwanted writesets, the pump must hop them chunk-at-a-time
  // (mask_skipped > 0) while the user-visible outcome stays exactly what the
  // per-entry probe would produce.
  proxies_[1]->SetSubscription(TableMask{table_b_});
  certifier_.Pull(1, 0);  // register replica 1 so prods reach it
  for (int i = 0; i < 600; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  sim_.RunAll();
  proxies_[1]->OnProd();  // drain any sub-threshold tail
  sim_.RunAll();
  EXPECT_EQ(proxies_[1]->applied_version(), 600u);
  EXPECT_EQ(proxies_[1]->stats().writesets_filtered, 600u);
  EXPECT_EQ(proxies_[1]->stats().writesets_applied, 0u);
  EXPECT_GT(proxies_[1]->stats().mask_skipped, 0u) << "chunk skip-scan never engaged";
  EXPECT_EQ(replicas_[1]->stats().writesets_applied, 0u);
}

TEST_F(ProxyTest, ParkedCommitHoldsTheSkipScanOffWhileUp) {
  // The ordering gate of the up pump: while a commit waits on the applied
  // version, a chunk skip would move that version past several entries in
  // one step, so the pump probes entry by entry until the waiter has fired.
  // Log: one b-writeset, then 599 a-writesets (two whole a-only chunks).
  proxies_[1]->SetSubscription(TableMask{table_b_});
  proxies_[0]->SubmitTransaction(update_b_, [](bool) {});
  for (int i = 0; i < 599; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  sim_.RunAll();
  ASSERT_EQ(certifier_.head_version(), 600u);

  // Replica 1's update certifies as version 601 with (0, 600] to apply. The
  // pump starts applying version 1 (wanted) and the commit parks on 600;
  // when that apply lands, versions 2..600 pass with the waiter still parked.
  struct {
    bool committed = false;
    uint64_t skipped = 0;
    uint64_t filtered = 0;
  } at_commit;
  proxies_[1]->SubmitTransaction(update_b_, [&at_commit, p = proxies_[1].get()](bool ok) {
    at_commit = {ok, p->stats().mask_skipped, p->stats().writesets_filtered};
  });
  sim_.RunAll();
  ASSERT_TRUE(at_commit.committed);
  EXPECT_EQ(at_commit.filtered, 599u);
  EXPECT_EQ(at_commit.skipped, 0u) << "skip-scan ran while a commit was parked";
  EXPECT_EQ(proxies_[1]->stats().mask_skipped, 0u);
  EXPECT_EQ(proxies_[1]->stats().writesets_applied, 1u);
  EXPECT_EQ(proxies_[1]->applied_version(), 601u);

  // With no waiter parked, the same kind of backlog is chunk-skipped, so the
  // zero above is the gate's doing.
  for (int i = 0; i < 600; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  sim_.RunAll();
  proxies_[1]->OnProd();
  sim_.RunAll();
  EXPECT_EQ(proxies_[1]->applied_version(), 1201u);
  EXPECT_GT(proxies_[1]->stats().mask_skipped, 0u);
}

TEST_F(ProxyTest, ReplayWithAParkedCommitSkipsAndThenCommits) {
  // The one case where the pump's skip-scan gate differs between lifecycles:
  // a commit is parked on the applied version while the replica recovers.
  // Up, the skip-scan waits for an empty waiter list; recovering, it hops
  // anyway, because the applied version moves only when the replayed batch
  // lands, so no skip can fire the parked commit out of order.
  for (int i = 0; i < 600; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  sim_.RunAll();
  ASSERT_EQ(certifier_.head_version(), 600u);

  proxies_[1]->SetSubscription(TableMask{table_b_});
  bool done = false;
  bool committed = false;
  proxies_[1]->SubmitTransaction(update_b_, [&](bool ok) {
    done = true;
    committed = ok;
  });
  // Crash once the replica has executed the update, well inside the
  // certification round trip.
  while (replicas_[1]->stats().txns_executed == 0) {
    sim_.RunUntil(sim_.Now() + Micros(10));
  }
  proxies_[1]->Crash();
  sim_.RunAll();
  // The response certified the update while the replica was down; the
  // commit is parked on version 600, which the replica has not applied.
  EXPECT_EQ(certifier_.head_version(), 601u);
  EXPECT_FALSE(done);
  EXPECT_EQ(proxies_[1]->applied_version(), 0u);

  proxies_[1]->Recover();
  sim_.RunAll();
  const ProxyStats& s = proxies_[1]->stats();
  EXPECT_EQ(s.mask_skipped, 512u);
  EXPECT_EQ(s.replay_filtered, 600u);
  EXPECT_EQ(s.replay_applied, 1u);  // its own writeset, certified while down
  EXPECT_TRUE(done);
  EXPECT_TRUE(committed);
  EXPECT_EQ(proxies_[1]->applied_version(), 601u);
  EXPECT_EQ(proxies_[1]->applied_version(), certifier_.head_version());
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.recoveries, 1u);
}

TEST_F(ProxyTest, CrashMidInstallDiscardsTheTornImageAndInstallsAgain) {
  // Replica 1 is three versions behind when it joins from a checkpoint image.
  for (int i = 0; i < 3; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  sim_.RunAll();
  const Version image = certifier_.head_version();
  Proxy& joiner = *proxies_[1];
  joiner.SetCheckpointSource(
      [this]() { return BuildCheckpoint(schema_, certifier_.head_version()); });
  joiner.JoinAsNew();
  EXPECT_EQ(joiner.lifecycle(), ReplicaLifecycle::kInstalling);
  EXPECT_EQ(joiner.installing_checkpoint(), std::optional<Version>(image));

  // Crash well inside the 16 MiB image's transfer: the pin goes at once.
  sim_.RunUntil(sim_.Now() + Millis(10));
  ASSERT_EQ(joiner.lifecycle(), ReplicaLifecycle::kInstalling);
  joiner.Crash();
  EXPECT_EQ(joiner.installing_checkpoint(), std::nullopt);
  // The torn image lands while the replica is down and moves nothing.
  sim_.RunAll();
  EXPECT_EQ(replicas_[1]->stats().checkpoint_installs, 1u);
  EXPECT_EQ(joiner.lifecycle(), ReplicaLifecycle::kDown);
  EXPECT_EQ(joiner.applied_version(), 0u);

  // Recover restarts the transfer (the join is still pending); two commits
  // while it installs leave a suffix to replay after the image.
  joiner.Recover();
  EXPECT_EQ(joiner.installing_checkpoint(), std::optional<Version>(image));
  for (int i = 0; i < 2; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  sim_.RunAll();
  EXPECT_EQ(replicas_[1]->stats().checkpoint_installs, 2u);
  EXPECT_TRUE(joiner.available());
  EXPECT_EQ(joiner.installing_checkpoint(), std::nullopt);
  EXPECT_EQ(certifier_.head_version(), image + 2);
  EXPECT_EQ(joiner.applied_version(), certifier_.head_version());
  EXPECT_EQ(joiner.stats().writesets_applied, 2u);
  EXPECT_EQ(joiner.stats().joins, 1u);
}

TEST_F(ProxyTest, SubscriptionPastTheMaskNeverReachesTheProxy) {
  // A relation id past TableMask::kBits has no mask bit: building the table
  // set throws, so no such subscription can be installed, and the installed
  // one keeps filtering.
  proxies_[1]->SetSubscription(TableMask{table_b_});
  certifier_.Pull(1, 0);  // register replica 1 so prods reach it
  EXPECT_THROW(proxies_[1]->SetSubscription(TableMask{table_a_, TableMask::kBits}),
               std::out_of_range);
  ASSERT_TRUE(proxies_[1]->subscription().has_value());
  EXPECT_EQ(*proxies_[1]->subscription(), TableMask{table_b_});
  for (int i = 0; i < 3; ++i) {
    proxies_[0]->SubmitTransaction(update_a_, [](bool) {});
  }
  proxies_[0]->SubmitTransaction(update_b_, [](bool) {});
  sim_.RunAll();
  proxies_[1]->OnProd();
  sim_.RunAll();
  EXPECT_EQ(proxies_[1]->applied_version(), 4u);
  EXPECT_EQ(proxies_[1]->stats().writesets_filtered, 3u);
  EXPECT_EQ(proxies_[1]->stats().writesets_applied, 1u);
}

// --- allocation guard: the end-to-end transaction hot path -------------------

// The full build -> certify -> apply round trip through the proxy — admission,
// replica execution, writeset build, parked certification round trip, remote
// apply on the peer — performs zero heap allocations once the cluster is warm
// (event slab sized, buffer-pool pages resident, conflict index populated,
// the gatekeeper's ring, the replicas' in-flight slabs and the FifoServer job
// rings grown to the burst's depth). This is the hot-path contract; if a
// future change adds so much as one std::function or vector to the path, this
// test fails in Debug and CI.
TEST(ProxyAllocGuard, WarmTransactionRoundTripIsAllocationFree) {
  Schema tiny;
  const RelationId hot = tiny.AddTable("hot", PagesToBytes(1));
  ReplicaConfig rc;
  rc.memory = 16 * kMiB;
  rc.reserved = 0;
  Simulator sim;
  Certifier cert;
  Replica r0(&sim, &tiny, 0, rc, Rng(1));
  Replica r1(&sim, &tiny, 1, rc, Rng(2));
  Proxy p0(&sim, &r0, &cert);
  Proxy p1(&sim, &r1, &cert);
  TxnType hot_update;
  hot_update.name = "hot";
  hot_update.id = 0;
  hot_update.writeset_bytes = 100;
  hot_update.plan.steps = {Write(hot, 0, 8)};  // 8 of the 16 possible keys

  int done = 0;
  auto submit_round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      p0.SubmitTransaction(hot_update, [&done](bool) { ++done; });
      p1.SubmitTransaction(hot_update, [&done](bool) { ++done; });
    }
    sim.RunAll();
  };

  // Warm: cover the 16-key row space, fault in the single page on both
  // replicas, and size the event slab, parked-cert slab, and the gatekeeper
  // and job-queue rings (the burst backlog is part of what we warm).
  submit_round(50);
  ASSERT_EQ(done, 100);

  AllocGuard::Forbid forbid;
  submit_round(50);
  EXPECT_EQ(done, 200);
  EXPECT_EQ(forbid.seen(), 0u)
      << "warm transaction round trip allocated on the certify/apply hot path";
  EXPECT_GT(cert.certified_count(), 0u);
  EXPECT_GT(r1.stats().writesets_applied + r0.stats().writesets_applied, 0u);
}

// A backlog of 1,000 submissions behind a one-slot gatekeeper: each waits as
// a slot index in the gatekeeper's ring, its type and `done` parked once in
// the proxy. Once the slab and the ring have grown to the backlog, a second
// backlog allocates nothing, and the transactions finish in submission
// order, each `done` exactly once.
TEST(ProxyAllocGuard, QueuedBacklogIsAllocationFreeAndFifo) {
  Schema tiny;
  const RelationId hot = tiny.AddTable("hot", PagesToBytes(4));
  ReplicaConfig rc;
  rc.memory = 16 * kMiB;
  rc.reserved = 0;
  Simulator sim;
  Certifier cert;
  Replica replica(&sim, &tiny, 0, rc, Rng(1));
  Proxy proxy(&sim, &replica, &cert, ProxyConfig{1, {}});
  TxnType read;
  read.name = "read";
  read.id = 0;
  read.base_cpu = Micros(100);
  read.plan.steps = {Random(hot, 2)};

  constexpr uint32_t kBacklog = 1000;
  struct Log {
    std::vector<uint32_t> order;   // transaction ids in completion order
    std::vector<int> fired;        // `done` calls per transaction id
    uint64_t aborted = 0;
  } log;
  log.order.reserve(2 * kBacklog);
  log.fired.assign(2 * kBacklog, 0);
  auto backlog = [&](uint32_t first) {
    for (uint32_t id = first; id < first + kBacklog; ++id) {
      proxy.SubmitTransaction(read, [&log, id](bool committed) {
        log.order.push_back(id);
        ++log.fired[id];
        log.aborted += committed ? 0 : 1;
      });
    }
    EXPECT_EQ(proxy.outstanding(), kBacklog);
    sim.RunAll();
  };

  backlog(0);  // warm: the proxy's slab, the ring and the pool's pages
  {
    AllocGuard::Forbid forbid;
    backlog(kBacklog);
    EXPECT_EQ(forbid.seen(), 0u) << "a queued transaction allocated once warm";
  }
  ASSERT_EQ(log.order.size(), 2 * kBacklog);
  for (uint32_t i = 0; i < 2 * kBacklog; ++i) {
    EXPECT_EQ(log.order[i], i);
    EXPECT_EQ(log.fired[i], 1) << "transaction " << i;
  }
  EXPECT_EQ(log.aborted, 0u);
  EXPECT_EQ(proxy.outstanding(), 0u);
  EXPECT_EQ(proxy.stats().read_only, 2 * kBacklog);
}

}  // namespace
}  // namespace tashkent
