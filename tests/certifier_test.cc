// Unit tests for the certifier: ordering, piggybacked propagation, pulls,
// prods, log pruning + arena lifetime, group-commit channel batching, the
// per-proxy dedup window, and warm-standby crash/failover with epoch fencing.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/certifier/certifier.h"
#include "src/common/alloc_guard.h"
#include "src/certifier/channel.h"
#include "src/sim/simulator.h"

namespace tashkent {
namespace {

Writeset MakeWs(std::vector<WritesetItem> items) {
  Writeset ws;
  for (const WritesetItem& item : items) {
    ws.items.push_back(item);
  }
  ws.table_pages = {{0, 1}};
  return ws;
}

TEST(Certifier, AssignsMonotonicVersions) {
  Certifier c;
  const auto r1 = c.Certify(MakeWs({{1, 1}}), 0, 0);
  const auto r2 = c.Certify(MakeWs({{1, 2}}), 0, r1.commit_version);
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(r2.committed);
  EXPECT_EQ(r1.commit_version, 1u);
  EXPECT_EQ(r2.commit_version, 2u);
  EXPECT_EQ(c.head_version(), 2u);
  EXPECT_EQ(c.log_size(), 2u);
}

TEST(Certifier, DetectsConflict) {
  Certifier c;
  // Replica 0 commits; replica 1, still at version 0, wrote the same row.
  const auto r1 = c.Certify(MakeWs({{5, 77}}), 0, 0);
  ASSERT_TRUE(r1.committed);
  Writeset conflicting = MakeWs({{5, 77}});
  conflicting.snapshot_version = 0;
  const auto r2 = c.Certify(std::move(conflicting), 1, 0);
  EXPECT_FALSE(r2.committed);
  EXPECT_EQ(c.aborted_count(), 1u);
  EXPECT_EQ(c.certified_count(), 1u);
  // The aborted request still receives the missed remote writesets.
  ASSERT_EQ(r2.remote.count(), 1u);
  EXPECT_EQ(c.LogEntry(r2.remote.from).commit_version, 1u);
}

TEST(Certifier, PiggybacksRemoteWritesets) {
  Certifier c;
  c.Certify(MakeWs({{1, 1}}), 0, 0);
  c.Certify(MakeWs({{1, 2}}), 0, 1);
  // Replica 1 certifies its first update having applied nothing: it must
  // receive versions 1 and 2 (not its own new commit).
  Writeset ws = MakeWs({{2, 1}});
  ws.snapshot_version = 0;
  const auto r = c.Certify(std::move(ws), 1, 0);
  EXPECT_TRUE(r.committed);
  ASSERT_EQ(r.remote.count(), 2u);
  EXPECT_EQ(r.remote.from, 1u);
  EXPECT_EQ(r.remote.to, 2u);
  EXPECT_EQ(c.LogEntry(1).commit_version, 1u);
  EXPECT_EQ(c.LogEntry(2).commit_version, 2u);
}

TEST(Certifier, PullReturnsMissedUpdates) {
  Certifier c;
  c.Certify(MakeWs({{1, 1}}), 0, 0);
  c.Certify(MakeWs({{1, 2}}), 0, 1);
  const WritesetRange pulled = c.Pull(1, 0);
  ASSERT_EQ(pulled.count(), 2u);
  const WritesetRange empty = c.Pull(1, 2);
  EXPECT_TRUE(empty.empty());
}

TEST(Certifier, ProdsLaggingReplicas) {
  Certifier c;
  std::vector<ReplicaId> prodded;
  c.SetProdCallback([&](ReplicaId r) { prodded.push_back(r); });

  // Replica 1 makes itself known at version 0, then replica 0 commits
  // kProdThreshold + 2 updates; replica 1 falls past the threshold and gets
  // prodded once.
  constexpr int kLag = static_cast<int>(kProdThreshold) + 2;
  c.Pull(1, 0);
  Version applied = 0;
  for (int i = 0; i < kLag; ++i) {
    const auto r = c.Certify(MakeWs({{1, static_cast<uint64_t>(i)}}), 0, applied);
    applied = r.commit_version;
  }
  ASSERT_EQ(prodded.size(), 1u);  // prod is not repeated while outstanding
  EXPECT_EQ(prodded[0], 1u);

  // After the replica pulls, it can be prodded again.
  c.Pull(1, c.head_version());
  for (int i = 0; i < kLag; ++i) {
    const auto r = c.Certify(MakeWs({{2, static_cast<uint64_t>(i)}}), 0, applied);
    applied = r.commit_version;
  }
  EXPECT_EQ(prodded.size(), 2u);
}

TEST(Certifier, AbortedWritesetsNotInLog) {
  Certifier c;
  c.Certify(MakeWs({{5, 5}}), 0, 0);
  Writeset conflicting = MakeWs({{5, 5}});
  conflicting.snapshot_version = 0;
  c.Certify(std::move(conflicting), 1, 0);
  EXPECT_EQ(c.log_size(), 1u);
  EXPECT_EQ(c.head_version(), 1u);
}

TEST(Certifier, LogOrderMatchesVersions) {
  Certifier c;
  Version applied = 0;
  for (int i = 0; i < 10; ++i) {
    const auto r = c.Certify(MakeWs({{1, static_cast<uint64_t>(100 + i)}}), 0, applied);
    applied = r.commit_version;
  }
  for (Version v = 1; v <= c.head_version(); ++v) {
    EXPECT_EQ(c.LogEntry(v).commit_version, v);
  }
}

// --- log pruning + arena lifetime -------------------------------------------

TEST(Certifier, WritesetsSurviveLogPrune) {
  Certifier c;
  Version applied = 0;
  // Enough commits to span several log chunks; every 7th writeset spills
  // past the inline capacity so its rows land in the arena on append.
  const int kCommits = 3 * static_cast<int>(WritesetLog::kChunkEntries) + 10;
  for (int i = 0; i < kCommits; ++i) {
    Writeset ws = MakeWs({{1, static_cast<uint64_t>(i)}});
    ws.snapshot_version = applied;
    if (i % 7 == 0) {
      for (uint64_t k = 0; k < 2 * Writeset::Items::inline_capacity(); ++k) {
        ws.items.push_back(WritesetItem{2, 1000000 + k});
      }
    }
    const auto r = c.Certify(std::move(ws), 0, applied);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
  }
  EXPECT_GT(c.arena().allocated_bytes(), 0u);

  const Version floor = 2 * WritesetLog::kChunkEntries;  // prune two chunks
  c.PruneLogBelow(floor);
  EXPECT_EQ(c.log_pruned_below(), floor);
  EXPECT_EQ(c.log_size(), static_cast<size_t>(kCommits) - floor);
  EXPECT_EQ(c.head_version(), static_cast<Version>(kCommits));

  // Every surviving entry — spilled ones included — is intact and readable.
  for (Version v = floor + 1; v <= c.head_version(); ++v) {
    const Writeset& ws = c.LogEntry(v);
    EXPECT_EQ(ws.commit_version, v);
    ASSERT_GE(ws.items.size(), 1u);
    EXPECT_EQ(ws.items[0].row_key, static_cast<uint64_t>(v - 1));
    if ((v - 1) % 7 == 0) {
      ASSERT_EQ(ws.items.size(), 1 + 2 * Writeset::Items::inline_capacity());
      EXPECT_TRUE(ws.items.spilled());
      EXPECT_EQ(ws.items[ws.items.size() - 1].relation, 2u);
    }
  }

  // New commits keep working after the prune and stay readable.
  const auto r = c.Certify(MakeWs({{3, 42}}), 0, applied);
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(c.LogEntry(r.commit_version).items[0].relation, 3u);
}

TEST(Certifier, LogPruneRecyclesArenaBlocks) {
  Certifier c;
  Version applied = 0;
  // Big spilled writesets so the arena spans multiple blocks.
  const uint64_t rows = 4096;  // 64 KiB of items per writeset
  for (int i = 0; i < 8; ++i) {
    Writeset ws;
    ws.table_pages = {{0, 1}};
    for (uint64_t k = 0; k < rows; ++k) {
      ws.items.push_back(WritesetItem{1, static_cast<uint64_t>(i) * rows + k});
    }
    const auto r = c.Certify(std::move(ws), 0, applied);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
  }
  const uint64_t before = c.arena().allocated_bytes();
  ASSERT_GT(before, 0u);
  ASSERT_GT(c.arena().live_blocks(), 1u);

  c.PruneLogBelow(4);
  EXPECT_LT(c.arena().allocated_bytes(), before);
  EXPECT_GT(c.arena().spare_blocks(), 0u);  // recycled, not freed

  // Survivors still verify.
  for (Version v = 5; v <= 8; ++v) {
    const Writeset& ws = c.LogEntry(v);
    ASSERT_EQ(ws.items.size(), rows);
    EXPECT_EQ(ws.items[0].row_key, (v - 1) * rows);
  }
}

// --- allocation guard: steady-state certification is allocation-free ---------

// The PR-5 "allocation-free writeset pipeline" claim, pinned: once the
// conflict index has seen a row set and the log's current chunk has
// capacity, certifying a workload-sized writeset — build, conflict check,
// version assignment, log append — performs zero heap allocations.
// (Cold-path allocations are real but amortized: a new log chunk every
// WritesetLog::kChunkEntries commits, a conflict-index doubling whenever live
// rows pass three quarters of its capacity, an arena block per ~64 KiB of
// spilled rows.)
TEST(Certifier, SteadyStateCertifyIsAllocationFree) {
  Certifier c;
  Version applied = 0;
  // Warm up: touch every row the measured phase will write, so the conflict
  // index is fully populated, and stay well inside the first log chunk.
  const uint64_t kRows = 16;
  auto make = [](uint64_t row) {
    Writeset ws;
    ws.items.push_back(WritesetItem{1, row});
    ws.table_pages = {{0, 1}};
    return ws;
  };
  for (uint64_t i = 0; i < kRows; ++i) {
    const auto r = c.Certify(make(i), 0, applied);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
  }

  const int kMeasured = 64;
  ASSERT_LT(kRows + kMeasured, WritesetLog::kChunkEntries);
  AllocGuard::Forbid forbid;
  for (int i = 0; i < kMeasured; ++i) {
    Writeset ws = make(static_cast<uint64_t>(i) % kRows);
    ws.snapshot_version = applied;
    const CertifyResult r = c.Certify(std::move(ws), 0, applied);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
  }
  EXPECT_EQ(forbid.seen(), 0u)
      << "certify/log-append hot path allocated on a warmed certifier";

  // Aborting certifications must not allocate either: the conflict answer
  // comes from probes, and aborted writesets never reach the log.
  {
    AllocGuard::Forbid abort_forbid;
    Writeset stale = make(0);
    stale.snapshot_version = 0;  // row 0 was rewritten after version 0
    // Replica 0 is already registered; a first-contact replica would hit the
    // cold-path replica_version_ resize, which is not the claim under test.
    const CertifyResult r = c.Certify(std::move(stale), 0, applied);
    ASSERT_FALSE(r.committed);
    EXPECT_EQ(abort_forbid.seen(), 0u);
  }
}

// The bounded-index half of the claim: rows never seen before cost no
// allocation either, once pruning keeps the conflict index at its working
// size. Every writeset writes fresh row keys; between batches the index is
// pruned at the head (no snapshot is older) and the log keeps one chunk of
// history, so both recycle in place instead of growing.
TEST(Certifier, FreshRowCertifyIsAllocationFreeUnderPruning) {
  Certifier c;
  Version applied = 0;
  uint64_t next_row = 0;
  // Half a log chunk per batch, so every batch meets the same chunk layout.
  constexpr int kBatch = static_cast<int>(WritesetLog::kChunkEntries / 2);
  auto batch = [&]() {
    for (int i = 0; i < kBatch; ++i) {
      Writeset ws;
      for (int k = 0; k < 3; ++k) {
        ws.items.push_back(WritesetItem{1, next_row++});
      }
      ws.table_pages = {{0, 1}};
      ws.snapshot_version = applied;
      const CertifyResult r = c.Certify(std::move(ws), 0, applied);
      ASSERT_TRUE(r.committed);
      applied = r.commit_version;
    }
    c.PruneBelow(applied);
    if (applied > WritesetLog::kChunkEntries) {
      c.PruneLogBelow(applied - WritesetLog::kChunkEntries);
    }
  };
  // Warm: the index grows to hold one batch's rows and the log's chunk and
  // spare lists reach their steady sizes.
  for (int i = 0; i < 20; ++i) {
    batch();
  }
  AllocGuard::Forbid forbid;
  for (int i = 0; i < 50; ++i) {
    batch();
  }
  EXPECT_EQ(forbid.seen(), 0u) << "certifying fresh rows allocated on a pruned certifier";
  EXPECT_EQ(c.conflict_rows(), 0u);  // pruned at the head after the last batch
  EXPECT_EQ(c.certified_count(), 70u * kBatch);
}

// --- dedup window: idempotent certification ---------------------------------

// A retried certification carrying the same (replica, txn_seq) re-serves the
// recorded verdict: no second commit version, no double count.
TEST(Certifier, DuplicateCertifyReServesVerdict) {
  Certifier c;
  const auto first = c.Certify(MakeWs({{1, 1}}), 0, 0, /*txn_seq=*/1);
  ASSERT_TRUE(first.committed);
  EXPECT_EQ(c.certified_count(), 1u);
  EXPECT_EQ(c.dedup_hits(), 0u);

  const auto dup = c.Certify(MakeWs({{1, 1}}), 0, 0, /*txn_seq=*/1);
  EXPECT_TRUE(dup.committed);
  EXPECT_EQ(dup.commit_version, first.commit_version);
  EXPECT_EQ(c.certified_count(), 1u);  // not certified twice
  EXPECT_EQ(c.head_version(), 1u);     // not appended twice
  EXPECT_EQ(c.dedup_hits(), 1u);
}

// Abort verdicts are recorded too: a retry of an aborted transaction must not
// get a second (possibly different) answer.
TEST(Certifier, DuplicateCertifyReServesAbort) {
  Certifier c;
  ASSERT_TRUE(c.Certify(MakeWs({{5, 9}}), 0, 0, 1).committed);
  Writeset conflicting = MakeWs({{5, 9}});
  conflicting.snapshot_version = 0;
  const auto aborted = c.Certify(std::move(conflicting), 1, 0, 7);
  ASSERT_FALSE(aborted.committed);

  Writeset retry = MakeWs({{5, 9}});
  retry.snapshot_version = 0;
  const auto again = c.Certify(std::move(retry), 1, 0, 7);
  EXPECT_FALSE(again.committed);
  EXPECT_EQ(c.aborted_count(), 1u);  // counted once
  EXPECT_EQ(c.dedup_hits(), 1u);
}

// The window is per replica: the same txn_seq from different proxies are
// distinct transactions.
TEST(Certifier, DedupWindowIsPerReplica) {
  Certifier c;
  ASSERT_TRUE(c.Certify(MakeWs({{1, 1}}), 0, 0, 1).committed);
  const auto other = c.Certify(MakeWs({{2, 1}}), 1, 1, 1);
  EXPECT_TRUE(other.committed);
  EXPECT_EQ(c.certified_count(), 2u);
  EXPECT_EQ(c.dedup_hits(), 0u);
}

// Sequence numbers past the window size evict older records (direct-mapped
// ring); a duplicate inside the window still hits after unrelated traffic.
TEST(Certifier, DedupRingEvictsByWindow) {
  Certifier c;
  Version applied = 0;
  const auto first = c.Certify(MakeWs({{1, 100}}), 0, applied, 1);
  ASSERT_TRUE(first.committed);
  applied = first.commit_version;
  // seq kDedupWindow + 1 maps to the same ring slot as seq 1 and evicts it.
  constexpr uint64_t kWrap = kDedupWindow + 1;
  for (uint64_t seq = 2; seq <= kWrap; ++seq) {
    const auto r = c.Certify(MakeWs({{1, 100 + seq}}), 0, applied, seq);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
  }
  EXPECT_EQ(c.Certify(MakeWs({{1, 100 + kWrap}}), 0, applied, kWrap).commit_version,
            applied);  // seq kWrap still in the window: re-served
  EXPECT_EQ(c.dedup_hits(), 1u);
  // seq 1 was evicted: a (pathologically late) duplicate re-certifies fresh
  // instead of hitting the window. The proxy's generation guard makes this
  // unreachable in practice — the slot only retires after an accepted
  // response — but the ring's eviction behavior is still pinned.
  Writeset late_ws = MakeWs({{1, 999}});
  late_ws.snapshot_version = applied;
  const auto late = c.Certify(std::move(late_ws), 0, applied, 1);
  EXPECT_TRUE(late.committed);
  EXPECT_EQ(c.dedup_hits(), 1u);  // unchanged: it was a miss, not a hit
}

// ResolveDuplicate: the bookkeeping path for a response whose original was
// already consumed by the proxy (stale generation) — counts a hit without
// re-certifying anything.
TEST(Certifier, ResolveDuplicateCountsWithoutCertifying) {
  Certifier c;
  ASSERT_TRUE(c.Certify(MakeWs({{1, 1}}), 0, 0, 3).committed);
  EXPECT_TRUE(c.ResolveDuplicate(0, 3));
  EXPECT_FALSE(c.ResolveDuplicate(0, 99));  // unknown seq: no record
  EXPECT_FALSE(c.ResolveDuplicate(5, 3));   // unknown replica
  EXPECT_EQ(c.certified_count(), 1u);
  EXPECT_EQ(c.dedup_hits(), 1u);
}

// --- warm standby: crash, failover, epoch fencing ---------------------------

TEST(Certifier, CrashStopsServingFailoverResumesWithNewEpoch) {
  Certifier c;
  Version applied = 0;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    const auto r = c.Certify(MakeWs({{1, seq}}), 0, applied, seq);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
  }
  EXPECT_TRUE(c.serving());
  EXPECT_EQ(c.epoch(), 1u);

  c.Crash();
  EXPECT_FALSE(c.serving());
  EXPECT_EQ(c.crashes(), 1u);

  c.Failover();
  EXPECT_TRUE(c.serving());
  EXPECT_EQ(c.epoch(), 2u);
  EXPECT_EQ(c.failovers(), 1u);
  // The promoted standby has the full state: versions continue, the log is
  // intact, and the dedup window survives (a retry straddling the failover
  // still re-serves its verdict instead of committing twice).
  EXPECT_EQ(c.head_version(), 5u);
  const auto dup = c.Certify(MakeWs({{1, 5}}), 0, applied, 5);
  EXPECT_TRUE(dup.committed);
  EXPECT_EQ(c.certified_count(), 5u);
  EXPECT_EQ(c.dedup_hits(), 1u);

  const auto fresh = c.Certify(MakeWs({{1, 6}}), 0, applied, 6);
  EXPECT_TRUE(fresh.committed);
  EXPECT_EQ(fresh.commit_version, 6u);
}

// The standby image is shipped synchronously at every decide, sequenced or
// not, so a crash at ANY point finds it consistent with the primary's public
// counters.
TEST(Certifier, StandbyImageTracksEveryDecide) {
  Certifier c;
  Version applied = 0;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    // The last decide is unsequenced, as an unarmed proxy sends it.
    const uint64_t txn_seq = seq <= 3 ? seq : kNoTxnSeq;
    const auto r = c.Certify(MakeWs({{2, seq}}), 0, applied, txn_seq);
    ASSERT_TRUE(r.committed);
    applied = r.commit_version;
    const auto& image = c.standby_image();
    EXPECT_EQ(image.next_version, c.head_version() + 1);
    EXPECT_EQ(image.log_head, c.head_version());
    EXPECT_EQ(image.certified, c.certified_count());
    EXPECT_EQ(image.aborted, c.aborted_count());
  }
  // A planned failover after the unsequenced decide keeps every version.
  c.Failover();
  EXPECT_EQ(c.certified_count(), 4u);
  EXPECT_EQ(c.Certify(MakeWs({{2, 5}}), 0, applied).commit_version, 5u);
}

// --- group-commit channel batching ------------------------------------------

// Submits arrivals through the batching channel or, as the reference the
// differential tests compare it with, as one plain simulator event per
// arrival: the schedule the channel's batches must reproduce.
class Arrivals {
 public:
  Arrivals(Simulator* sim, bool batched) : sim_(sim) {
    if (batched) {
      channel_.emplace(sim);
    }
  }

  template <typename F>
  void Submit(SimDuration delay, F fn, uint32_t sender = 0) {
    ++arrivals_;
    if (channel_) {
      channel_->ScheduleArrival(delay, std::move(fn), sender);
    } else {
      ++events_;
      sim_->ScheduleAfter(delay, std::move(fn));
    }
  }

  uint64_t arrivals() const { return arrivals_; }
  uint64_t events() const { return channel_ ? channel_->events_scheduled() : events_; }

 private:
  Simulator* sim_;
  std::optional<CertifierChannel> channel_;
  uint64_t arrivals_ = 0;
  uint64_t events_ = 0;
};

// Same-tick arrivals share one simulator event but run in submission order.
TEST(CertifierChannel, BatchedArrivalsPreserveOrderAndSaveEvents) {
  Simulator sim;
  CertifierChannel channel(&sim);
  std::vector<int> order;
  // Three arrivals for tick 100, two for tick 250, interleaved submission.
  channel.ScheduleArrival(100, [&order]() { order.push_back(1); }, /*sender=*/0);
  channel.ScheduleArrival(100, [&order]() { order.push_back(2); }, /*sender=*/0);
  channel.ScheduleArrival(250, [&order]() { order.push_back(10); }, /*sender=*/0);
  channel.ScheduleArrival(100, [&order]() { order.push_back(3); }, /*sender=*/0);
  channel.ScheduleArrival(250, [&order]() { order.push_back(11); }, /*sender=*/0);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 10, 11}));
  EXPECT_EQ(channel.arrivals(), 5u);
  EXPECT_EQ(channel.events_scheduled(), 2u);  // one per distinct tick
  EXPECT_EQ(sim.executed_events(), 2u);
}

// A handler that re-submits for the *currently firing* tick gets a fresh
// event (it must not join the batch already draining), exactly like a
// same-tick event scheduled from within a tick.
TEST(CertifierChannel, ReentrantSameTickArrivalGetsOwnEvent) {
  Simulator sim;
  CertifierChannel channel(&sim);
  std::vector<int> order;
  bool resubmitted = false;
  channel.ScheduleArrival(
      0,
      [&]() {
        order.push_back(1);
        if (!resubmitted) {
          resubmitted = true;
          channel.ScheduleArrival(0, [&order]() { order.push_back(2); }, /*sender=*/0);
        }
      },
      /*sender=*/0);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(channel.events_scheduled(), 2u);
}

// Differential: the full certification sequence of an interleaved
// multi-replica schedule is identical through the batching channel and as
// one event per arrival — verdicts, commit versions, remote ranges, and
// arrival times.
TEST(CertifierChannel, BatchingIsResultIdenticalDifferentially) {
  struct Observation {
    bool committed;
    Version commit_version;
    Version remote_from;
    Version remote_to;
    SimTime at;
  };
  // Bundled so the parked-payload arrivals capture one pointer (mirroring the
  // proxy's parked-slot discipline; Arrival capacity is deliberately small).
  struct Ctx {
    Simulator sim;
    Certifier certifier;
    std::deque<Writeset> parked;  // stable addresses
    std::vector<Observation> log;
    std::vector<Version> applied = std::vector<Version>(3, 0);
  };
  auto run = [](bool batched) {
    Ctx ctx;
    Arrivals arrivals(&ctx.sim, batched);
    // 30 certifications from 3 replicas; groups of three share a submission
    // tick (and hence an arrival tick), each writing distinct rows except
    // every 5th, which rewrites row 7 to force real conflicts.
    for (int i = 0; i < 30; ++i) {
      const ReplicaId replica = static_cast<ReplicaId>(i % 3);
      const SimTime submit = (i / 3) * 400;
      ctx.sim.ScheduleAt(submit, [c = &ctx, a = &arrivals, replica, i]() {
        Writeset ws;
        ws.table_pages = {{0, 1}};
        const uint64_t row = (i % 5 == 0) ? 7 : 100 + static_cast<uint64_t>(i);
        ws.items.push_back(WritesetItem{1, row});
        ws.snapshot_version = c->applied[replica];
        c->parked.push_back(std::move(ws));
        Writeset* p = &c->parked.back();
        a->Submit(320, [c, replica, p]() {
          const CertifyResult r =
              c->certifier.Certify(std::move(*p), replica, c->applied[replica]);
          if (r.committed) {
            c->applied[replica] = r.commit_version;
          } else if (!r.remote.empty()) {
            c->applied[replica] = r.remote.to;
          }
          c->log.push_back(Observation{r.committed, r.commit_version, r.remote.from,
                                       r.remote.to, c->sim.Now()});
        }, replica);
      });
    }
    ctx.sim.RunAll();
    return ctx.log;
  };

  const auto reference = run(false);
  const auto batched = run(true);
  ASSERT_EQ(reference.size(), batched.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].committed, batched[i].committed) << i;
    EXPECT_EQ(reference[i].commit_version, batched[i].commit_version) << i;
    EXPECT_EQ(reference[i].remote_from, batched[i].remote_from) << i;
    EXPECT_EQ(reference[i].remote_to, batched[i].remote_to) << i;
    EXPECT_EQ(reference[i].at, batched[i].at) << i;
  }
}

// Structural pin of the header's "equivalence caveat": a NON-channel event
// scheduled for an arrival tick BETWEEN two submissions for that tick runs
// between them with one event per arrival, but after the whole batch
// through the channel (the shared event carries the first submission's
// sequence number). This is the one schedule shape where batching is
// observable; the test keeps it documented-by-execution so a future scenario
// that hits it (and breaks the golden digest) has a named, understood cause
// instead of a mystery.
TEST(CertifierChannel, ForeignSameTickEventOrdersAfterBatch) {
  auto run = [](bool batched) {
    Simulator sim;
    Arrivals arrivals(&sim, batched);
    std::vector<int> order;
    arrivals.Submit(100, [&order]() { order.push_back(1); });
    // The foreign event: same tick, scheduled after the first submission.
    sim.ScheduleAt(100, [&order]() { order.push_back(99); });
    arrivals.Submit(100, [&order]() { order.push_back(2); });
    sim.RunAll();
    return order;
  };
  // One event per arrival: schedule order is execution order, so the
  // foreign event fires between the two arrivals.
  EXPECT_EQ(run(false), (std::vector<int>{1, 99, 2}));
  // Batched, the second arrival joins the already-scheduled batch event and
  // jumps the foreign event. No production component schedules this shape
  // (arrivals land an RTT after submission; a foreign event would need the
  // exact microsecond), which is why batching stays result-identical on the
  // full grid — but the property is empirical, and this is the witness.
  EXPECT_EQ(run(true), (std::vector<int>{1, 2, 99}));
}

// Flash-crowd burst: hundreds of arrivals land on one tick (the fluid client
// model's crowd spike compressed into the certifier RTT), a quarter of them
// re-entrantly chase with zero-delay re-submissions two levels deep (the
// recovery-pull pattern). The full firing sequence must match one event per
// arrival exactly, batch vectors must be recycled across waves, and the
// event saving must scale with the burst size.
TEST(CertifierChannel, FlashCrowdBurstReentrancyMatchesUnbatched) {
  struct BurstCtx {
    Simulator sim;
    Arrivals* arrivals = nullptr;
    std::vector<std::pair<int, SimTime>> log;
    void Arrive(int id, int depth) {
      log.push_back({id, sim.Now()});
      if (depth > 0) {
        // Same-tick chaser: must get a fresh event (the firing batch is
        // already detached), in both modes firing after everything queued.
        arrivals->Submit(0, [this, id, depth]() { Arrive(id + 10000, depth - 1); });
      }
    }
  };
  auto run = [](bool batched) {
    BurstCtx ctx;
    Arrivals arrivals(&ctx.sim, batched);
    ctx.arrivals = &arrivals;
    // Wave 1: 200 arrivals on tick 100; every 4th spawns a 2-deep chaser
    // chain. Wave 2: 100 more on tick 500, reusing recycled batch storage.
    for (int i = 0; i < 200; ++i) {
      const int depth = (i % 4 == 0) ? 2 : 0;
      ctx.sim.ScheduleAt(0, [c = &ctx, a = &arrivals, i, depth]() {
        a->Submit(100, [c, i, depth]() { c->Arrive(i, depth); });
      });
    }
    for (int i = 200; i < 300; ++i) {
      ctx.sim.ScheduleAt(0, [c = &ctx, a = &arrivals, i]() {
        a->Submit(500, [c, i]() { c->Arrive(i, 0); });
      });
    }
    ctx.sim.RunAll();
    return std::make_tuple(ctx.log, arrivals.arrivals(), arrivals.events());
  };

  const auto [reference_log, reference_arrivals, reference_events] = run(false);
  const auto [batched_log, batched_arrivals, batched_events] = run(true);

  // 300 direct + 50 chasers * 2 levels = 400 arrivals either way.
  EXPECT_EQ(reference_arrivals, 400u);
  EXPECT_EQ(batched_arrivals, 400u);
  ASSERT_EQ(reference_log.size(), batched_log.size());
  for (size_t i = 0; i < reference_log.size(); ++i) {
    EXPECT_EQ(reference_log[i].first, batched_log[i].first) << "position " << i;
    EXPECT_EQ(reference_log[i].second, batched_log[i].second) << "position " << i;
  }
  EXPECT_EQ(reference_events, 400u);  // one event per arrival
  // Batched: one event per wave plus one per cascade LEVEL — the first
  // re-entrant chaser of a level opens a fresh batch (the firing one is
  // detached) and the other 49 join it. 400 arrivals ride 4 events.
  EXPECT_EQ(batched_events, 4u);
}

}  // namespace
}  // namespace tashkent
