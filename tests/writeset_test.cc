// Unit tests for the writeset memory model: inline SmallVec storage, the
// version-tagged arena, and the chunked stable-address log
// (src/gsi/writeset.h, src/gsi/writeset_store.h). The certifier-level
// lifetime tests (writesets surviving a log prune, spill interning on
// append) live in tests/certifier_test.cc; these cover the store directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/common/alloc_guard.h"
#include "src/common/rng.h"
#include "src/gsi/writeset.h"
#include "src/gsi/writeset_store.h"

namespace tashkent {
namespace {

Writeset MakeWs(Version version, int items) {
  Writeset ws;
  ws.commit_version = version;
  ws.origin = 1;
  ws.bytes = 275;
  ws.table_pages = {{7, 2}};
  for (int i = 0; i < items; ++i) {
    ws.items.push_back(WritesetItem{3, version * 1000 + static_cast<uint64_t>(i)});
  }
  return ws;
}

TEST(Writeset, WorkloadSizedWritesetsStayInline) {
  // The largest transaction type in either workload writes 6 rows across 3
  // tables (RUBiS PlaceBid); the inline capacities must cover it, or the
  // zero-allocation claim in writeset.h is false.
  Writeset ws;
  for (int i = 0; i < 6; ++i) {
    ws.items.push_back(WritesetItem{1, static_cast<uint64_t>(i)});
  }
  ws.table_pages = {{1, 3}, {2, 2}, {3, 1}};
  EXPECT_FALSE(ws.items.spilled());
  EXPECT_FALSE(ws.table_pages.spilled());
}

TEST(Writeset, TouchesAnyChecksTablePages) {
  Writeset ws;
  ws.table_pages = {{3, 2}, {7, 1}};
  EXPECT_TRUE(ws.TouchesAny(TableMask{7, 9}));
  EXPECT_TRUE(ws.TouchesAny(TableMask{3}));
  EXPECT_FALSE(ws.TouchesAny(TableMask{4, 5}));
  EXPECT_FALSE(ws.TouchesAny(TableMask{1, 2}));
  EXPECT_FALSE(ws.TouchesAny(TableMask{}));
  EXPECT_FALSE(Writeset{}.TouchesAny(TableMask{3, 7}));
}

TEST(WritesetRange, CountsAndEmptiness) {
  EXPECT_TRUE((WritesetRange{5, 4}).empty());
  EXPECT_EQ((WritesetRange{5, 4}).count(), 0u);
  EXPECT_EQ((WritesetRange{5, 5}).count(), 1u);
  EXPECT_EQ((WritesetRange{3, 10}).count(), 8u);
  EXPECT_TRUE(WritesetRange{}.empty());  // the default range is empty
}

TEST(WritesetLog, AppendGetAcrossChunks) {
  WritesetLog log;
  WritesetArena arena;
  const Version n = 2 * WritesetLog::kChunkEntries + 17;
  for (Version v = 1; v <= n; ++v) {
    log.Append(MakeWs(v, 2), arena);
  }
  EXPECT_EQ(log.head(), n);
  EXPECT_EQ(log.size(), n);
  EXPECT_EQ(log.chunk_count(), 3u);
  for (Version v = 1; v <= n; ++v) {
    EXPECT_EQ(log.Get(v).commit_version, v);
    EXPECT_EQ(log.Get(v).items[0].row_key, v * 1000);
  }
}

TEST(WritesetLog, EntriesHaveStableAddressesWhileGrowing) {
  WritesetLog log;
  WritesetArena arena;
  log.Append(MakeWs(1, 3), arena);
  const Writeset* first = &log.Get(1);
  for (Version v = 2; v <= 4 * WritesetLog::kChunkEntries; ++v) {
    log.Append(MakeWs(v, 1), arena);
  }
  EXPECT_EQ(first, &log.Get(1));  // proxies hold these across growth
  EXPECT_EQ(first->items.size(), 3u);
}

TEST(WritesetLog, PruneRecyclesChunksAndKeepsSurvivors) {
  WritesetLog log;
  WritesetArena arena;
  const Version n = 3 * WritesetLog::kChunkEntries;
  for (Version v = 1; v <= n; ++v) {
    log.Append(MakeWs(v, 1), arena);
  }
  // Prune mid-chunk: the floor's chunk survives (it still holds live
  // versions); only wholly-dead chunks are recycled.
  const Version floor = WritesetLog::kChunkEntries + 5;
  log.PruneBelow(floor, arena);
  EXPECT_EQ(log.pruned_below(), floor);
  EXPECT_EQ(log.size(), n - floor);
  EXPECT_EQ(log.chunk_count(), 2u);
  for (Version v = floor + 1; v <= n; ++v) {
    EXPECT_EQ(log.Get(v).commit_version, v);
  }
  // Appending after a prune reuses recycled chunks (no unbounded growth).
  for (Version v = n + 1; v <= n + WritesetLog::kChunkEntries; ++v) {
    log.Append(MakeWs(v, 1), arena);
  }
  EXPECT_EQ(log.Get(n + 1).commit_version, n + 1);
  EXPECT_EQ(log.chunk_count(), 3u);
}

TEST(WritesetLog, SpilledWritesetIsInternedIntoArena) {
  WritesetLog log;
  WritesetArena arena;
  Writeset big = MakeWs(1, 3 * static_cast<int>(Writeset::Items::inline_capacity()));
  ASSERT_TRUE(big.items.spilled());
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  const Writeset& stored = log.Append(std::move(big), arena);
  EXPECT_TRUE(stored.items.spilled());
  EXPECT_GT(arena.allocated_bytes(), 0u);
  EXPECT_EQ(stored.items.size(), 3 * Writeset::Items::inline_capacity());
  EXPECT_EQ(stored.items[0].row_key, 1000u);
}

TEST(WritesetArena, VersionTaggedBlocksPruneAsAPrefix) {
  WritesetArena arena;
  // Three versions, each filling most of a block so they land in distinct
  // blocks.
  const size_t big = WritesetArena::kBlockBytes - 64;
  arena.Allocate(big, 1);
  arena.Allocate(big, 2);
  void* survivor = arena.Allocate(big, 3);
  ASSERT_EQ(arena.live_blocks(), 3u);
  static_cast<unsigned char*>(survivor)[0] = 0xAB;

  arena.PruneBelow(2);
  EXPECT_EQ(arena.live_blocks(), 1u);
  EXPECT_EQ(arena.spare_blocks(), 2u);
  EXPECT_EQ(static_cast<unsigned char*>(survivor)[0], 0xAB);  // live data intact

  // New allocations reuse the recycled blocks instead of growing.
  arena.Allocate(big, 4);
  arena.Allocate(big, 5);
  EXPECT_EQ(arena.live_blocks(), 3u);
  EXPECT_EQ(arena.spare_blocks(), 0u);
}

TEST(WritesetArena, OversizedAllocationGetsDedicatedBlock) {
  WritesetArena arena;
  arena.Allocate(16, 1);
  void* huge = arena.Allocate(4 * WritesetArena::kBlockBytes, 2);
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(arena.live_blocks(), 2u);
  arena.PruneBelow(2);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

// --- prune-safety churn model -------------------------------------------------
// Property test for the cluster's auto-pruning contract: randomized
// interleavings of certify (append), apply (cursor advance), kill, recover
// (log-covered replay or checkpoint install), and prune — mirrored against a
// naive model that never prunes (a plain vector of deep copies). The pruned
// store must serve every version a replica's cursor can reach, with content
// identical to the model's, and pruning must actually reclaim chunks and
// arena blocks.
TEST(WritesetLogChurnModel, RandomizedPruneNeverLosesANeededVersion) {
  WritesetLog log;
  WritesetArena arena;
  std::vector<Writeset> model;  // unpruned reference; model[v - 1] is version v
  Rng rng(0xC0FFEE);

  // Replica cursors as the cluster tracks them for the prune floor: a durable
  // applied version, an up/down bit, and (recovering past the prune line) an
  // in-flight checkpoint install pinning the floor at its image version.
  struct Rep {
    Version applied = 0;
    bool up = true;
    std::optional<Version> installing;
  };
  std::vector<Rep> reps(4);
  Version head = 0;
  const int spill_items = 3 * static_cast<int>(Writeset::Items::inline_capacity());

  // Reads version v from the pruned store and checks it against the model.
  auto check_entry = [&](Version v) {
    const Writeset& got = log.Get(v);
    const Writeset& want = model[v - 1];
    ASSERT_EQ(got.commit_version, want.commit_version);
    ASSERT_EQ(got.items.size(), want.items.size());
    for (size_t i = 0; i < want.items.size(); ++i) {
      ASSERT_EQ(got.items[i].row_key, want.items[i].row_key) << "v=" << v << " item " << i;
    }
  };
  // The donor version a checkpoint install would use: the freshest up replica
  // (never below the prune line — the image recipient replays the suffix).
  auto donor_version = [&]() {
    Version v = log.pruned_below();
    for (const Rep& rep : reps) {
      if (rep.up) {
        v = std::max(v, rep.applied);
      }
    }
    return v;
  };

  uint64_t prunes = 0;
  for (int step = 0; step < 6000; ++step) {
    const size_t r = rng.NextBelow(reps.size());
    Rep& rep = reps[r];
    switch (rng.NextBelow(6)) {
      case 0:
      case 1: {  // certify: append the next version (sometimes a spilled one)
        const int items =
            rng.NextBelow(24) == 0 ? spill_items : 1 + static_cast<int>(rng.NextBelow(5));
        ++head;
        Writeset ws = MakeWs(head, items);
        model.push_back(ws);  // deep copy before the append re-homes spills
        log.Append(std::move(ws), arena);
        break;
      }
      case 2: {  // apply: an up replica advances its cursor, reading the log
        if (!rep.up || rep.installing || rep.applied >= head) {
          break;
        }
        const Version target =
            std::min(head, rep.applied + 1 + rng.NextBelow(64));
        for (Version v = rep.applied + 1; v <= target; ++v) {
          check_entry(v);
        }
        rep.applied = target;
        break;
      }
      case 3: {  // kill: fail-stop (its durable cursor keeps pinning the floor)
        rep.up = false;
        rep.installing.reset();  // a crash mid-install abandons the image
        break;
      }
      case 4: {  // recover / finish an install
        if (rep.up) {
          break;
        }
        if (rep.installing) {  // the image lands: resume reading above it
          rep.applied = *rep.installing;
          rep.installing.reset();
          rep.up = true;
        } else if (rep.applied < log.pruned_below()) {
          rep.installing = donor_version();  // state transfer, floor pinned
        } else {
          rep.up = true;  // log-covered replay; applies via case 2
        }
        break;
      }
      case 5: {  // prune at the cluster's conservative floor
        Version floor = head;
        for (const Rep& other : reps) {
          floor = std::min(floor, other.installing.value_or(other.applied));
        }
        if (floor > log.pruned_below()) {
          log.PruneBelow(floor, arena);
          ++prunes;
        }
        break;
      }
    }
  }

  // The interleaving really exercised pruning, and no read above ever failed.
  EXPECT_GT(prunes, 0u);
  EXPECT_GT(log.pruned_below(), 0u);
  EXPECT_EQ(log.head(), head);
  ASSERT_EQ(model.size(), static_cast<size_t>(head));
  // Every still-live version must match the model (one full sweep).
  for (Version v = log.pruned_below() + 1; v <= head; ++v) {
    check_entry(v);
  }

  // Reclamation is real: once every replica catches up and the floor reaches
  // the head, the store keeps at most one partially-filled chunk and the
  // arena frees every version-covered block.
  const size_t chunks_before = log.chunk_count();
  const size_t blocks_before = arena.live_blocks();
  log.PruneBelow(head, arena);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_LE(log.chunk_count(), 1u);
  EXPECT_EQ(arena.live_blocks(), 0u);
  EXPECT_LE(log.chunk_count(), chunks_before);
  EXPECT_LE(arena.live_blocks(), blocks_before);
  // An unpruned log of `head` entries would hold ceil(head / kChunkEntries)
  // chunks; the churn kept the live footprint strictly below that.
  EXPECT_LT(chunks_before,
            (static_cast<size_t>(head) + WritesetLog::kChunkEntries - 1) /
                WritesetLog::kChunkEntries);
}

// --- per-chunk interest masks and skip-scan ----------------------------------

Writeset MakeWsOn(Version version, RelationId relation) {
  Writeset ws = MakeWs(version, 1);
  ws.table_pages = {{relation, 2}};
  return ws;
}

TEST(WritesetLogMasks, ChunkMasksTrackAppendsAndSkip) {
  WritesetLog log;
  WritesetArena arena;
  const RelationId kTableA = 11;
  const RelationId kTableB = 22;
  // Chunk 1 is pure A, chunk 2 pure B, then a short mixed tail.
  for (Version v = 1; v <= WritesetLog::kChunkEntries; ++v) {
    log.Append(MakeWsOn(v, kTableA), arena);
  }
  for (Version v = WritesetLog::kChunkEntries + 1; v <= 2 * WritesetLog::kChunkEntries; ++v) {
    log.Append(MakeWsOn(v, kTableB), arena);
  }
  const Version head = 2 * WritesetLog::kChunkEntries + 8;
  for (Version v = 2 * WritesetLog::kChunkEntries + 1; v <= head; ++v) {
    log.Append(MakeWsOn(v, v % 2 ? kTableA : kTableB), arena);
  }

  // Per-entry masks carry exactly the touched table's bit: its RelationId.
  const TableMask& m1 = log.MaskOf(1);
  EXPECT_TRUE(m1.Test(kTableA));
  EXPECT_FALSE(m1.Test(kTableB));
  EXPECT_TRUE(log.MaskOf(WritesetLog::kChunkEntries + 1).Test(kTableB));

  const TableMask sub_a = TableMask{kTableA};
  const TableMask sub_b = TableMask{kTableB};

  // A-subscriber finds work immediately; B-subscriber hops the pure-A chunk
  // whether it starts at the chunk boundary or mid-chunk.
  EXPECT_EQ(log.SkipUnwanted(1, head, sub_a), 1u);
  EXPECT_EQ(log.SkipUnwanted(1, head, sub_b), WritesetLog::kChunkEntries + 1);
  EXPECT_EQ(log.SkipUnwanted(100, head, sub_b), WritesetLog::kChunkEntries + 1);
  // Starting inside a wanted chunk is a no-op hop.
  EXPECT_EQ(log.SkipUnwanted(WritesetLog::kChunkEntries + 9, head, sub_b),
            WritesetLog::kChunkEntries + 9);

  // A subscription to a table the log never saw skips everything, including
  // the partially-filled tail chunk.
  const TableMask sub_unseen = TableMask{99};
  EXPECT_EQ(log.SkipUnwanted(1, head, sub_unseen), head + 1);

  // The skip window is clamped by `hi`, not the log head: a B-subscriber
  // bounded inside the pure-A chunk walks off the end of its window.
  EXPECT_EQ(log.SkipUnwanted(1, WritesetLog::kChunkEntries / 2, sub_b),
            WritesetLog::kChunkEntries / 2 + 1);
}

TEST(WritesetLogMasks, PruneResetsRecycledChunkMasks) {
  WritesetLog log;
  WritesetArena arena;
  const RelationId kTableA = 11;
  const RelationId kTableB = 22;
  const Version two_chunks = 2 * WritesetLog::kChunkEntries;
  for (Version v = 1; v <= two_chunks; ++v) {
    log.Append(MakeWsOn(v, kTableA), arena);
  }
  // Recycle the first (wholly-dead) chunk, then refill it with pure-B
  // traffic: versions two_chunks+1 .. three_chunks land in the recycled chunk.
  log.PruneBelow(WritesetLog::kChunkEntries, arena);
  EXPECT_EQ(log.chunk_count(), 1u);
  for (Version v = two_chunks + 1; v <= two_chunks + WritesetLog::kChunkEntries; ++v) {
    log.Append(MakeWsOn(v, kTableB), arena);
  }

  const TableMask sub_a = TableMask{kTableA};
  // If recycling failed to reset the chunk's union mask, the stale A bit
  // would pin an A-subscriber inside the now-pure-B chunk.
  EXPECT_EQ(log.SkipUnwanted(two_chunks + 1, log.head(), sub_a), log.head() + 1);
  // And the recycled slots' per-entry masks must describe the NEW entries.
  const TableMask& recycled = log.MaskOf(two_chunks + 1);
  EXPECT_TRUE(recycled.Test(kTableB));
  EXPECT_FALSE(recycled.Test(kTableA));
}

// The skip-scan's safety contract, brute-forced against TouchesAny: over a
// seeded log of several chunks (each chunk writes a few tables of its own, so
// whole chunks miss a subscription) and many random subscriptions, start
// points and window ends, no version in [from, SkipUnwanted(from, hi, sub))
// is wanted. The skip may stop early; it must never pass a wanted entry.
// The same probes run again after a prune has recycled the first chunk.
TEST(WritesetLogMasks, SkipNeverPassesAWantedEntry) {
  constexpr RelationId kTables = 16;
  WritesetLog log;
  WritesetArena arena;
  Rng rng(20261019);
  const Version head = 5 * WritesetLog::kChunkEntries + 100;
  std::vector<RelationId> palette;
  for (Version v = 1; v <= head; ++v) {
    if ((v - 1) % WritesetLog::kChunkEntries == 0) {
      palette.clear();
      for (int i = 0; i < 3; ++i) {
        palette.push_back(static_cast<RelationId>(rng.NextBelow(kTables)));
      }
    }
    Writeset ws = MakeWs(v, 1);
    ws.table_pages.clear();
    const uint64_t touches = 1 + rng.NextBelow(2);
    for (uint64_t t = 0; t < touches; ++t) {
      ws.table_pages.push_back(TableWrite{palette[rng.NextBelow(palette.size())], 1});
    }
    log.Append(std::move(ws), arena);
  }

  uint64_t hopped = 0;
  const auto probe_all = [&](Version lowest) {
    for (int probe = 0; probe < 2000; ++probe) {
      TableMask sub;
      const uint64_t width = 1 + rng.NextBelow(3);
      for (uint64_t t = 0; t < width; ++t) {
        sub.Set(static_cast<RelationId>(rng.NextBelow(kTables)));
      }
      const Version from = lowest + rng.NextBelow(head - lowest + 1);
      const Version hi = from + rng.NextBelow(head - from + 1);
      const Version hop = log.SkipUnwanted(from, hi, sub);
      ASSERT_GE(hop, from);
      ASSERT_LE(hop, hi + 1);
      for (Version v = from; v < hop; ++v) {
        ASSERT_FALSE(log.Get(v).TouchesAny(sub))
            << "skip from " << from << " to " << hop << " passed wanted version " << v;
      }
      hopped += hop - from;
    }
  };
  probe_all(1);
  log.PruneBelow(WritesetLog::kChunkEntries + 10, arena);
  ASSERT_EQ(log.pruned_below(), WritesetLog::kChunkEntries + 10);
  probe_all(WritesetLog::kChunkEntries + 11);
  // The skip engaged, so the check above is not vacuous.
  EXPECT_GT(hopped, 100 * WritesetLog::kChunkEntries);
}

TEST(WritesetLogMasks, AppendRejectsRelationPastTheMaskAndKeepsTheLog) {
  // A hand-built writeset naming a relation id past TableMask::kBits has no
  // mask bit: Append throws before touching the log.
  WritesetLog log;
  WritesetArena arena;
  log.Append(MakeWsOn(1, 11), arena);
  EXPECT_THROW(log.Append(MakeWsOn(2, TableMask::kBits), arena), std::out_of_range);
  EXPECT_EQ(log.head(), 1u);
  log.Append(MakeWsOn(2, 22), arena);
  EXPECT_EQ(log.head(), 2u);
  EXPECT_TRUE(log.MaskOf(2).Test(22));
  EXPECT_FALSE(log.MaskOf(2).Test(11));
}

// --- allocation guard: the zero-alloc writeset claim, machine-checked --------

TEST(AllocGuard, WorkloadSizedWritesetLifecycleIsAllocationFree) {
  // Build, move, filter-test, and copy a workload-sized writeset (the
  // largest real transaction writes 6 rows / 3 tables) under a Forbid
  // region: the whole lifecycle must stay inside the inline storage.
  const TableMask subscription{1, 3};
  AllocGuard::Forbid forbid;
  Writeset ws;
  for (int i = 0; i < 6; ++i) {
    ws.items.push_back(WritesetItem{static_cast<RelationId>(1 + i / 2),
                                    static_cast<uint64_t>(100 + i)});
  }
  ws.table_pages = {{1, 3}, {2, 2}, {3, 1}};
  ws.bytes = 275;
  EXPECT_TRUE(ws.TouchesAny(subscription));
  Writeset moved = std::move(ws);
  EXPECT_EQ(moved.items.size(), 6u);
  EXPECT_FALSE(moved.items.spilled());
  EXPECT_EQ(forbid.seen(), 0u);
}

TEST(AllocGuard, SpilledWritesetIsCountedByTheGuard) {
  // Sanity check of the instrument itself: exceeding the inline capacity
  // must allocate, and the guard must see it.
  AllocGuard::Forbid forbid;
  Writeset ws;
  for (uint64_t i = 0; i < 2 * Writeset::Items::inline_capacity(); ++i) {
    ws.items.push_back(WritesetItem{1, i});
  }
  EXPECT_TRUE(ws.items.spilled());
  EXPECT_GT(forbid.seen(), 0u);
}

TEST(AllocGuard, AllowReopensTheHeapInsideForbid) {
  AllocGuard::Forbid forbid;
  {
    AllocGuard::Allow allow;
    std::vector<int> v(64);
    EXPECT_EQ(v.size(), 64u);
  }
  EXPECT_EQ(forbid.seen(), 0u);
}

}  // namespace
}  // namespace tashkent
