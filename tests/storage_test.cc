// Unit tests for schema catalog, buffer pool, and disk model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/alloc_guard.h"
#include "src/common/rng.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_model.h"
#include "src/storage/schema.h"

namespace tashkent {
namespace {

RelationMeta MakeRel(RelationId id, Pages pages) {
  RelationMeta m;
  m.id = id;
  m.name = "r" + std::to_string(id);
  m.pages = pages;
  return m;
}

TEST(Schema, AddAndFind) {
  Schema s;
  const RelationId t = s.AddTable("orders", MiB(10));
  const RelationId i = s.AddIndex("orders_idx", t, MiB(1));
  EXPECT_EQ(s.Find("orders"), t);
  EXPECT_EQ(s.Find("orders_idx"), i);
  EXPECT_EQ(s.Find("nope"), kInvalidRelation);
  EXPECT_EQ(s.Get(t).pages, BytesToPages(MiB(10)));
  EXPECT_EQ(s.Get(i).parent, t);
  EXPECT_EQ(s.Get(i).kind, RelationKind::kIndex);
}

TEST(Schema, DuplicateNameThrows) {
  Schema s;
  s.AddTable("t", MiB(1));
  EXPECT_THROW(s.AddTable("t", MiB(1)), std::invalid_argument);
}

TEST(Schema, IndexNeedsTableParent) {
  Schema s;
  const RelationId t = s.AddTable("t", MiB(1));
  const RelationId i = s.AddIndex("i", t, MiB(1));
  EXPECT_THROW(s.AddIndex("j", i, MiB(1)), std::invalid_argument);  // parent is an index
  EXPECT_THROW(s.AddIndex("k", 999, MiB(1)), std::invalid_argument);
}

TEST(Schema, TotalsAndIndices) {
  Schema s;
  const RelationId a = s.AddTable("a", MiB(2));
  s.AddIndex("a1", a, MiB(1));
  s.AddIndex("a2", a, MiB(1));
  s.AddTable("b", MiB(4));
  EXPECT_EQ(s.TotalBytes(), MiB(8));
  EXPECT_EQ(s.IndicesOf(a).size(), 2u);
}

TEST(BufferPool, ScanMissesThenHits) {
  BufferPool pool(MiB(10), 8);
  const RelationMeta rel = MakeRel(1, 256);  // 2 MiB
  const PoolAccess first = pool.TouchScan(rel);
  EXPECT_EQ(first.pages_missed, 256);
  EXPECT_EQ(first.pages_hit, 0);
  const PoolAccess second = pool.TouchScan(rel);
  EXPECT_EQ(second.pages_hit, 256);
  EXPECT_EQ(second.pages_missed, 0);
  EXPECT_EQ(pool.ResidentPages(rel.id), 256);
}

TEST(BufferPool, ScanLargerThanPoolNeverHits) {
  // Classic LRU sequential-flooding: a relation bigger than the pool evicts
  // its own head before the next scan returns — zero reuse. This is the
  // memory-contention regime MALB exists to avoid.
  BufferPool pool(PagesToBytes(100), 8);
  const RelationMeta rel = MakeRel(1, 200);
  pool.TouchScan(rel);
  const PoolAccess second = pool.TouchScan(rel);
  EXPECT_EQ(second.pages_hit, 0);
  EXPECT_EQ(second.pages_missed, 200);
  EXPECT_LE(pool.used_pages(), pool.capacity_pages());
}

TEST(BufferPool, ScanEvictsLru) {
  BufferPool pool(PagesToBytes(100), 8);
  const RelationMeta small = MakeRel(1, 40);
  const RelationMeta big = MakeRel(2, 80);
  pool.TouchScan(small);
  pool.TouchScan(big);  // evicts most of `small`
  EXPECT_LE(pool.used_pages(), 100);
  EXPECT_LT(pool.ResidentPages(small.id), 40);
  const PoolAccess again = pool.TouchScan(small);
  EXPECT_GT(again.pages_missed, 0);
}

TEST(BufferPool, RandomAccessAccumulatesResidency) {
  BufferPool pool(MiB(100), 32);
  const RelationMeta rel = MakeRel(3, 1000);
  Rng rng(5);
  AccessSkew uniform{1.0, 0.0};  // fully uniform
  for (int i = 0; i < 200; ++i) {
    pool.TouchRandom(rel, 10, rng, uniform);
  }
  // With 2000 draws over 1000 pages, most pages should be resident.
  EXPECT_GT(pool.ResidentPages(rel.id), 700);
  // And hit rate should now be high.
  const PoolAccess access = pool.TouchRandom(rel, 100, rng, uniform);
  EXPECT_GT(access.pages_hit, 60);
}

TEST(BufferPool, SkewConcentratesHits) {
  BufferPool pool(PagesToBytes(300), 32);
  const RelationMeta rel = MakeRel(4, 10000);  // much bigger than pool
  Rng rng(6);
  const AccessSkew skew{0.02, 0.9};  // hot 200 pages get 90% of accesses
  for (int i = 0; i < 300; ++i) {
    pool.TouchRandom(rel, 10, rng, skew);
  }
  const PoolAccess access = pool.TouchRandom(rel, 1000, rng, skew);
  // The hot core fits in the pool, so ~90% of accesses should hit.
  EXPECT_GT(access.pages_hit, 700);
}

TEST(BufferPool, WindowScanTouchesWindowOnly) {
  BufferPool pool(MiB(100), 8);
  const RelationMeta rel = MakeRel(5, 1000);
  Rng rng(7);
  const AccessSkew skew{0.25, 1.0};  // always start in the hot quarter
  const PoolAccess access = pool.TouchScanWindow(rel, 100, rng, skew);
  const Pages touched = access.pages_hit + access.pages_missed;
  // Window of 100 pages over 8-page chunks: at most 14 chunks = 112 pages.
  EXPECT_GE(touched, 100);
  EXPECT_LE(touched, 112);
}

TEST(BufferPool, WindowLargerThanRelationScansAll) {
  BufferPool pool(MiB(100), 8);
  const RelationMeta rel = MakeRel(6, 64);
  Rng rng(8);
  const PoolAccess access = pool.TouchScanWindow(rel, 1000, rng, AccessSkew{});
  EXPECT_EQ(access.pages_missed, 64);
}

TEST(BufferPool, DirtyPagesCoalesceAndFlush) {
  BufferPool pool(MiB(10), 8);
  const RelationMeta rel = MakeRel(7, 4);  // tiny: redirtying same pages
  Rng rng(9);
  Pages dirtied = 0;
  for (int i = 0; i < 50; ++i) {
    dirtied += pool.DirtyRandom(rel, 2, rng, AccessSkew{1.0, 0.0}).newly_dirtied;
  }
  // Only 4 distinct pages exist; everything else coalesces.
  EXPECT_LE(dirtied, 4);
  EXPECT_EQ(pool.dirty_pages(), dirtied);
  EXPECT_EQ(pool.TakeDirtyForFlush(100), dirtied);
  EXPECT_EQ(pool.dirty_pages(), 0);
}

TEST(BufferPool, FlushBatchesRespectLimit) {
  BufferPool pool(MiB(100), 8);
  const RelationMeta rel = MakeRel(8, 10000);
  Rng rng(10);
  pool.DirtyRandom(rel, 100, rng, AccessSkew{1.0, 0.0});
  const Pages first = pool.TakeDirtyForFlush(30);
  EXPECT_EQ(first, 30);
  EXPECT_GT(pool.dirty_pages(), 0);
}

TEST(BufferPool, DropRelationRemovesResidencyAndDirt) {
  BufferPool pool(MiB(10), 8);
  const RelationMeta a = MakeRel(9, 64);
  const RelationMeta b = MakeRel(10, 64);
  Rng rng(11);
  pool.TouchScan(a);
  pool.TouchScan(b);
  pool.DirtyRandom(a, 5, rng);
  pool.DirtyRandom(b, 5, rng);
  pool.DropRelation(a.id);
  EXPECT_EQ(pool.ResidentPages(a.id), 0);
  EXPECT_GT(pool.ResidentPages(b.id), 0);
  // Only b's dirty pages remain.
  EXPECT_LE(pool.dirty_pages(), 5);
}

TEST(BufferPool, CapacityNeverExceeded) {
  BufferPool pool(PagesToBytes(128), 16);
  Rng rng(12);
  for (RelationId r = 20; r < 30; ++r) {
    const RelationMeta rel = MakeRel(r, 100);
    pool.TouchScan(rel);
    pool.TouchRandom(rel, 20, rng);
    EXPECT_LE(pool.used_pages(), 128);
  }
}

TEST(BufferPool, StatsAccumulate) {
  BufferPool pool(MiB(10), 8);
  const RelationMeta rel = MakeRel(31, 64);
  pool.TouchScan(rel);
  pool.TouchScan(rel);
  EXPECT_EQ(pool.stats().misses, 64u);
  EXPECT_EQ(pool.stats().hits, 64u);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(DiskModel, Costs) {
  // 64 MB at 64 MB/s = 1 s.
  static_assert(DiskModel::kSequentialReadMbps == 64.0);
  EXPECT_NEAR(ToSeconds(DiskModel::SequentialReadTime(BytesToPages(MiB(64)))), 1.0, 1e-6);
  EXPECT_EQ(DiskModel::RandomReadTime(10), 10 * DiskModel::kRandomReadPerPage);
  EXPECT_EQ(DiskModel::WriteTime(4), 4 * DiskModel::kWritePerPage);
  // Random reads are far more expensive per byte than sequential.
  EXPECT_GT(DiskModel::RandomReadTime(1000), DiskModel::SequentialReadTime(1000));
}

TEST(AccessSkew, HotBias) {
  Rng rng(13);
  const AccessSkew skew{0.1, 0.9};
  const Pages pages = 1000;
  int hot = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (skew.SamplePage(rng, pages) < 100) {
      ++hot;
    }
  }
  // 90% targeted + 10% uniform spillover that lands hot 10% of the time.
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.91, 0.01);
}

TEST(BufferPool, SlabSlotsRecycleAcrossEvictionChurn) {
  // A pool much smaller than the key universe keeps evicting, so slab nodes
  // and index entries are freed and reallocated constantly; counts must stay
  // exact throughout and at the end.
  BufferPool pool(PagesToBytes(64), 8);
  const RelationMeta a = MakeRel(1, 10000);
  const RelationMeta b = MakeRel(2, 10000);
  Rng rng(99);
  const AccessSkew uniform{1.0, 0.0};
  for (int round = 0; round < 2000; ++round) {
    pool.TouchRandom(round % 2 == 0 ? a : b, 4, rng, uniform);
    EXPECT_LE(pool.used_pages(), pool.capacity_pages());
  }
  EXPECT_EQ(pool.ResidentPages(1) + pool.ResidentPages(2), pool.used_pages());
}

TEST(BufferPool, ClearResetsEverythingAndPoolStaysUsable) {
  BufferPool pool(PagesToBytes(256), 8);
  const RelationMeta rel = MakeRel(3, 200);
  Rng rng(7);
  pool.TouchScan(rel);
  pool.DirtyRandom(rel, 10, rng);
  EXPECT_GT(pool.used_pages(), 0);
  EXPECT_GT(pool.dirty_pages(), 0);
  pool.Clear();
  EXPECT_EQ(pool.used_pages(), 0);
  EXPECT_EQ(pool.dirty_pages(), 0);
  EXPECT_EQ(pool.ResidentPages(3), 0);
  // The freshly cleared pool must behave like a new one.
  const PoolAccess again = pool.TouchScan(rel);
  EXPECT_EQ(again.pages_hit, 0);
  EXPECT_EQ(again.pages_missed, rel.pages);
  EXPECT_EQ(pool.ResidentPages(3), rel.pages);
}

TEST(BufferPool, DropRelationLeavesOtherRelationsLinked) {
  // After dropping one relation the survivors' LRU links must be intact:
  // eviction order over the remaining entries is unchanged.
  BufferPool pool(PagesToBytes(96), 8);
  const RelationMeta keep1 = MakeRel(1, 32);
  const RelationMeta drop = MakeRel(2, 32);
  const RelationMeta keep2 = MakeRel(3, 32);
  pool.TouchScan(keep1);  // LRU end after the others arrive
  pool.TouchScan(drop);
  pool.TouchScan(keep2);  // MRU end
  pool.DropRelation(2);
  EXPECT_EQ(pool.ResidentPages(2), 0);
  EXPECT_EQ(pool.used_pages(), 64);
  // Fill past capacity: keep1 (least recent) must be evicted first.
  const RelationMeta filler = MakeRel(4, 64);
  pool.TouchScan(filler);
  EXPECT_EQ(pool.ResidentPages(1), 0);
  EXPECT_EQ(pool.ResidentPages(3), 32);
  EXPECT_EQ(pool.ResidentPages(4), 64);
}

TEST(BufferPool, DirtyFifoSurvivesInterleavedDropAndFlush) {
  BufferPool pool(PagesToBytes(4096), 8);
  const RelationMeta a = MakeRel(1, 500);
  const RelationMeta b = MakeRel(2, 500);
  Rng rng(5);
  const AccessSkew uniform{1.0, 0.0};
  pool.DirtyRandom(a, 40, rng, uniform);
  pool.DirtyRandom(b, 40, rng, uniform);
  const Pages before = pool.dirty_pages();
  EXPECT_GT(before, 40);
  pool.DropRelation(1);  // a's pending dirt disappears, b's survives
  const Pages after = pool.dirty_pages();
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0);
  EXPECT_EQ(pool.TakeDirtyForFlush(10000), after);
  EXPECT_EQ(pool.dirty_pages(), 0);
}

// Expects `fn` to throw std::invalid_argument whose message names `value`.
template <typename Fn>
void ExpectInvalidNaming(Fn fn, const std::string& value) {
  try {
    fn();
    ADD_FAILURE() << "no std::invalid_argument naming " << value;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos) << e.what();
  }
}

TEST(BufferPool, RejectsChunkSizesOutsideTheEntryWeight) {
  // A chunk's weight is 16 bits, and a page's chunk is a shift, so
  // chunk_pages is a power of two below 2^15.
  EXPECT_THROW(BufferPool(PagesToBytes(64), 0), std::invalid_argument);
  ExpectInvalidNaming([] { BufferPool(PagesToBytes(64), -3); }, "-3");
  ExpectInvalidNaming([] { BufferPool(PagesToBytes(64), 1 << 15); }, "32768");
  for (const Pages bad : {Pages{3}, Pages{24}, Pages{(1 << 15) - 1}}) {
    ExpectInvalidNaming([bad] { BufferPool(PagesToBytes(64), bad); }, std::to_string(bad));
  }
  BufferPool largest(PagesToBytes(1 << 16), 1 << 14);
  EXPECT_EQ(largest.TouchScan(MakeRel(0, 1 << 15)).pages_missed, 1 << 15);
  EXPECT_EQ(largest.ResidentPages(0), 1 << 15);

  // Random touches find a page's chunk by shift. Three chunks in a pool that
  // holds two: the scan evicts chunk 0, so its pages miss (once each) and
  // the pages of chunks 1 and 2 hit. A shift off by one either way moves
  // pages across the chunk 0/1 boundary.
  BufferPool pool(PagesToBytes((2 << 14) + 512), 1 << 14);
  const RelationMeta rel = MakeRel(1, 3 << 14);
  EXPECT_EQ(pool.TouchScan(rel).pages_missed, 3 << 14);
  EXPECT_EQ(pool.ResidentPages(rel.id), 2 << 14);
  const AccessSkew uniform{1.0, 0.0};
  Rng rng(4);
  Rng mirror(4);
  std::set<uint64_t> singles;
  Pages expect_hits = 0;
  for (int i = 0; i < 256; ++i) {
    const uint64_t page = uniform.SamplePage(mirror, rel.pages);
    expect_hits += page >= (1 << 14) || !singles.insert(page).second ? 1 : 0;
  }
  EXPECT_EQ(pool.TouchRandom(rel, 256, rng, uniform).pages_hit, expect_hits);
  EXPECT_EQ(pool.ResidentPages(rel.id), (2 << 14) + static_cast<Pages>(singles.size()));
}

TEST(BufferPool, RejectsRelationIdsPastSixteenBits) {
  BufferPool pool(PagesToBytes(256), 8);
  Rng rng(1);
  const RelationMeta too_big = MakeRel(1 << 16, 40);
  ExpectInvalidNaming([&] { pool.TouchRandom(too_big, 1, rng); }, "65536");
  ExpectInvalidNaming([&] { pool.TouchScan(too_big); }, "65536");
  ExpectInvalidNaming([&] { pool.DirtyRandom(too_big, 1, rng); }, "65536");
  const RelationMeta invalid = MakeRel(kInvalidRelation, 40);
  ExpectInvalidNaming([&] { pool.TouchScan(invalid); }, std::to_string(kInvalidRelation));
  pool.DropRelation(kInvalidRelation);  // names nothing resident: a no-op
  // The largest id still fits, and nothing above was left behind.
  EXPECT_EQ(pool.used_pages(), 0);
  EXPECT_EQ(pool.TouchScan(MakeRel((1 << 16) - 1, 40)).pages_missed, 40);
  EXPECT_EQ(pool.ResidentPages((1 << 16) - 1), 40);
}

TEST(BufferPool, RejectsRelationsOfTwoToThe32Pages) {
  BufferPool pool(PagesToBytes(256), 8);
  Rng rng(1);
  const RelationMeta huge = MakeRel(2, Pages{1} << 32);
  ExpectInvalidNaming([&] { pool.TouchRandom(huge, 1, rng); }, "4294967296");
  ExpectInvalidNaming([&] { pool.DirtyRandom(huge, 1, rng); }, "4294967296");
  ExpectInvalidNaming([&] { pool.TouchScan(huge); }, "4294967296");
  // A relation that grows past the limit is caught when its tables grow.
  RelationMeta grows = MakeRel(3, 100);
  pool.TouchRandom(grows, 4, rng);
  grows.pages = Pages{1} << 32;
  EXPECT_THROW(pool.TouchRandom(grows, 1, rng), std::invalid_argument);
  EXPECT_EQ(pool.used_pages(), pool.ResidentPages(3));
}

TEST(BufferPool, WarmReplayIsAllocationFree) {
  // The first pass sizes every slab, table, directory and bitmap; a Resize to
  // one page then evicts everything (the script ends on a full-chunk scan,
  // heavier than one page) and recycles every LRU group. Replaying the same
  // seeded script must reuse them all without touching the heap.
  BufferPool pool(PagesToBytes(300), 32);
  const std::vector<RelationMeta> rels = {MakeRel(0, 2000), MakeRel(1, 640), MakeRel(2, 96)};
  const AccessSkew uniform{1.0, 0.0};
  auto script = [&](uint64_t seed) {
    Rng rng(seed);
    for (int step = 0; step < 4000; ++step) {
      const RelationMeta& rel = rels[rng.NextBelow(rels.size())];
      switch (rng.NextBelow(5)) {
        case 0:
          pool.TouchScanWindow(rel, 64, rng, uniform);
          break;
        case 1:
          pool.TouchRandom(rel, 8, rng, uniform);
          break;
        case 2:
          pool.DirtyRandom(rel, 4, rng, uniform);
          break;
        case 3:
          pool.TakeDirtyForFlush(6);
          break;
        default:
          pool.TouchRandom(rel, 2, rng);
          break;
      }
    }
    pool.TouchScan(rels[2]);
  };
  script(11);
  EXPECT_GT(pool.stats().evicted_pages, 0u);
  EXPECT_GT(pool.dirty_pages(), 0);
  pool.TakeDirtyForFlush(pool.dirty_pages());
  pool.Resize(PagesToBytes(1));
  EXPECT_EQ(pool.used_pages(), 0);
  EXPECT_EQ(pool.live_page_groups(), 0u);
  pool.Resize(PagesToBytes(300));
  const BufferPoolStats first = pool.stats();
  uint64_t allocations = 0;
  {
    AllocGuard::Forbid forbid;
    script(11);
    allocations = forbid.seen();
  }
  EXPECT_EQ(allocations, 0u);
  // The replay did the same work again.
  EXPECT_EQ(pool.stats().misses, 2 * first.misses);
  EXPECT_EQ(pool.stats().dirtied_pages, 2 * first.dirtied_pages);
}

TEST(BufferPool, GroupStorageGrowsOnce) {
  // At most capacity_pages + 1 groups are live at once, so the first fresh
  // group reserves group storage for that bound: once the directories are
  // sized, a cold pool filling up to its maximum of live groups allocates
  // nothing. A Resize to a larger pool raises the bound, which may cost one
  // more reserve (group headers and links), then nothing again.
  BufferPool pool(PagesToBytes(512), 8);
  const std::vector<RelationMeta> rels = {MakeRel(0, 40000), MakeRel(1, 6000), MakeRel(2, 300)};
  const AccessSkew uniform{1.0, 0.0};
  Rng rng(3);
  for (const RelationMeta& rel : rels) {
    pool.TouchScanWindow(rel, 1, rng, uniform);
    pool.TouchRandom(rel, 1, rng, uniform);
  }
  EXPECT_LE(pool.live_page_groups(), rels.size());
  // Random pages of big relations sit almost alone in their groups, so live
  // page groups approach one per resident page; windowed scans and drops
  // mix chunk groups in and recycle groups.
  size_t peak = 0;  // most live page groups seen by the script
  auto script = [&](uint64_t seed, int steps) {
    Rng script_rng(seed);
    peak = 0;
    for (int step = 0; step < steps; ++step) {
      const RelationMeta& rel = rels[script_rng.NextBelow(rels.size())];
      switch (script_rng.NextBelow(16)) {
        case 0:
          pool.TouchScanWindow(rel, 16, script_rng, uniform);
          break;
        case 1:
          if (script_rng.NextBelow(8) == 0) {
            pool.DropRelation(rel.id);
          }
          break;
        default:
          pool.TouchRandom(rel, 16, script_rng, uniform);
          break;
      }
      peak = std::max(peak, pool.live_page_groups());
    }
  };
  uint64_t allocations = 0;
  {
    AllocGuard::Forbid forbid;
    script(21, 600);
    allocations = forbid.seen();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(peak, 400u);
  EXPECT_LE(pool.used_pages(), pool.capacity_pages());

  pool.Resize(PagesToBytes(2048));
  {
    AllocGuard::Forbid forbid;
    script(22, 2400);
    allocations = forbid.seen();
  }
  EXPECT_LE(allocations, 2u);
  EXPECT_GT(peak, 513u);  // past the first bound
  {
    AllocGuard::Forbid forbid;
    script(23, 2400);
    allocations = forbid.seen();
  }
  EXPECT_EQ(allocations, 0u);
}

// --- Differential test against a reference pool ------------------------------

// The chunked-LRU model written as plainly as possible: one std::list in
// recency order (front = MRU), std::maps for lookup, every touch a separate
// splice. BufferPool must match it call for call.
class ReferencePool {
 public:
  ReferencePool(Pages capacity_pages, Pages chunk_pages)
      : capacity_(capacity_pages), chunk_(chunk_pages) {}

  PoolAccess TouchScan(const RelationMeta& rel) {
    const Pages chunks = (rel.pages + chunk_ - 1) / chunk_;
    return Scan(rel, 0, static_cast<uint64_t>(chunks));
  }

  PoolAccess TouchScanWindow(const RelationMeta& rel, Pages window, Rng& rng,
                             const AccessSkew& skew) {
    if (window <= 0 || window >= rel.pages) {
      return TouchScan(rel);
    }
    const uint64_t start = skew.SampleWindowStart(rng, rel.pages, window);
    const uint64_t last = start + static_cast<uint64_t>(window) - 1;
    const uint64_t chunk = static_cast<uint64_t>(chunk_);
    return Scan(rel, start / chunk, last / chunk + 1);
  }

  PoolAccess TouchRandom(const RelationMeta& rel, int n, Rng& rng, const AccessSkew& skew) {
    PoolAccess out;
    for (int i = 0; rel.pages > 0 && i < n; ++i) {
      (Page(rel.id, skew.SamplePage(rng, rel.pages)) ? out.pages_hit : out.pages_missed) += 1;
    }
    stats_.hits += static_cast<uint64_t>(out.pages_hit);
    stats_.misses += static_cast<uint64_t>(out.pages_missed);
    return out;
  }

  BufferPool::DirtyResult DirtyRandom(const RelationMeta& rel, int n, Rng& rng,
                                      const AccessSkew& skew) {
    BufferPool::DirtyResult out;
    for (int i = 0; rel.pages > 0 && i < n; ++i) {
      const uint64_t page = skew.SamplePage(rng, rel.pages);
      (Page(rel.id, page) ? out.access.pages_hit : out.access.pages_missed) += 1;
      const Key key{false, rel.id, page};
      if (dirty_where_.count(key) == 0) {
        dirty_where_[key] = dirty_.insert(dirty_.end(), key);
        ++out.newly_dirtied;
      }
    }
    stats_.hits += static_cast<uint64_t>(out.access.pages_hit);
    stats_.misses += static_cast<uint64_t>(out.access.pages_missed);
    stats_.dirtied_pages += static_cast<uint64_t>(out.newly_dirtied);
    return out;
  }

  Pages TakeDirtyForFlush(Pages max_pages) {
    Pages taken = 0;
    for (; taken < max_pages && !dirty_.empty(); ++taken) {
      dirty_where_.erase(dirty_.front());
      dirty_.pop_front();
    }
    stats_.flushed_pages += static_cast<uint64_t>(taken);
    return taken;
  }

  void DropRelation(RelationId rel) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (std::get<1>(it->key) == rel) {
        used_ -= it->weight;
        resident_[rel] -= it->weight;
        where_.erase(it->key);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = dirty_.begin(); it != dirty_.end();) {
      if (std::get<1>(*it) == rel) {
        dirty_where_.erase(*it);
        it = dirty_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Clear() {
    lru_.clear();
    where_.clear();
    dirty_.clear();
    dirty_where_.clear();
    resident_.clear();
    used_ = 0;
  }

  void Resize(Pages capacity_pages) {
    capacity_ = std::max<Pages>(capacity_pages, 1);
    Evict();
  }

  Pages used_pages() const { return used_; }
  Pages dirty_pages() const { return static_cast<Pages>(dirty_.size()); }
  Pages ResidentPages(RelationId rel) const {
    auto it = resident_.find(rel);
    return it == resident_.end() ? 0 : it->second;
  }
  const BufferPoolStats& stats() const { return stats_; }

  // What one relation holds: chunk entries, single-page entries, dirty pages.
  struct Holdings {
    int chunks = 0;
    int pages = 0;
    int dirty = 0;
  };
  Holdings Held(RelationId rel) const {
    Holdings h;
    for (const Entry& e : lru_) {
      if (std::get<1>(e.key) == rel) {
        (std::get<0>(e.key) ? h.chunks : h.pages) += 1;
      }
    }
    for (const Key& k : dirty_) {
      h.dirty += std::get<1>(k) == rel ? 1 : 0;
    }
    return h;
  }

  // Single-page entries resident across all relations.
  size_t SinglePageEntries() const {
    size_t n = 0;
    for (const Entry& e : lru_) {
      n += std::get<0>(e.key) ? 0 : 1;
    }
    return n;
  }

 private:
  using Key = std::tuple<bool, RelationId, uint64_t>;  // {is_chunk, relation, index}
  struct Entry {
    Key key;
    Pages weight;
  };

  // Moves `key` to the MRU end if resident; returns whether it was.
  bool Touch(const Key& key) {
    auto it = where_.find(key);
    if (it == where_.end()) {
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  void Insert(const Key& key, Pages weight) {
    lru_.push_front(Entry{key, weight});
    where_[key] = lru_.begin();
    used_ += weight;
    resident_[std::get<1>(key)] += weight;
    Evict();
  }

  void Evict() {
    while (used_ > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      used_ -= victim.weight;
      resident_[std::get<1>(victim.key)] -= victim.weight;
      stats_.evicted_pages += static_cast<uint64_t>(victim.weight);
      where_.erase(victim.key);
      lru_.pop_back();
    }
  }

  bool Page(RelationId rel, uint64_t page) {
    const uint64_t chunk = page / static_cast<uint64_t>(chunk_);
    if (Touch(Key{true, rel, chunk}) || Touch(Key{false, rel, page})) {
      return true;
    }
    Insert(Key{false, rel, page}, 1);
    return false;
  }

  PoolAccess Scan(const RelationMeta& rel, uint64_t first, uint64_t end) {
    PoolAccess out;
    for (uint64_t c = first; c < end; ++c) {
      const Pages weight = std::min<Pages>(chunk_, rel.pages - static_cast<Pages>(c) * chunk_);
      const Key key{true, rel.id, c};
      if (Touch(key)) {
        out.pages_hit += weight;
      } else {
        Insert(key, weight);
        out.pages_missed += weight;
      }
    }
    stats_.hits += static_cast<uint64_t>(out.pages_hit);
    stats_.misses += static_cast<uint64_t>(out.pages_missed);
    return out;
  }

  Pages capacity_;
  Pages chunk_;
  Pages used_ = 0;
  std::list<Entry> lru_;
  std::map<Key, std::list<Entry>::iterator> where_;
  std::list<Key> dirty_;
  std::map<Key, std::list<Key>::iterator> dirty_where_;
  std::map<RelationId, Pages> resident_;
  BufferPoolStats stats_;
};

struct DiffConfig {
  Pages capacity_pages;
  Pages chunk_pages;
  AccessSkew skew;
  // The default mixes exact multiples of the chunk with partial tail chunks,
  // a relation smaller than one chunk, and relations larger than the pool.
  std::vector<Pages> sizes = {3, 37, 64, 13, 121, 250, 8};
};

// Replays a seeded call script on both pools, comparing after every call;
// counts in `mixed_drops` the drops of a relation holding chunks, single
// pages and dirty pages at once.
void RunDifferential(const DiffConfig& cfg, uint64_t seed, int steps, int& mixed_drops) {
  SCOPED_TRACE("capacity " + std::to_string(cfg.capacity_pages) + " chunk " +
               std::to_string(cfg.chunk_pages) + " seed " + std::to_string(seed));
  BufferPool pool(PagesToBytes(cfg.capacity_pages), cfg.chunk_pages);
  ReferencePool ref(cfg.capacity_pages, cfg.chunk_pages);
  std::vector<RelationMeta> rels;
  for (size_t i = 0; i < cfg.sizes.size(); ++i) {
    rels.push_back(MakeRel(static_cast<RelationId>(i), cfg.sizes[i]));
  }
  Rng script_rng(seed);
  // Both pools draw their samples from identically seeded streams.
  Rng pool_rng(seed * 7919 + 1);
  Rng ref_rng(seed * 7919 + 1);
  for (int step = 0; step < steps; ++step) {
    RelationMeta& rel = rels[script_rng.NextBelow(rels.size())];
    const uint64_t op = script_rng.NextBelow(104);
    std::string what;
    if (op < 14) {
      what = "TouchScan";
      const PoolAccess a = pool.TouchScan(rel);
      const PoolAccess b = ref.TouchScan(rel);
      ASSERT_EQ(a.pages_hit, b.pages_hit) << what << " step " << step;
      ASSERT_EQ(a.pages_missed, b.pages_missed) << what << " step " << step;
    } else if (op < 34) {
      what = "TouchScanWindow";
      const Pages window =
          static_cast<Pages>(script_rng.NextBelow(static_cast<uint64_t>(rel.pages) + 2));
      const PoolAccess a = pool.TouchScanWindow(rel, window, pool_rng, cfg.skew);
      const PoolAccess b = ref.TouchScanWindow(rel, window, ref_rng, cfg.skew);
      ASSERT_EQ(a.pages_hit, b.pages_hit) << what << " step " << step;
      ASSERT_EQ(a.pages_missed, b.pages_missed) << what << " step " << step;
    } else if (op < 62) {
      what = "TouchRandom";
      const int n = static_cast<int>(script_rng.NextBelow(12));
      const PoolAccess a = pool.TouchRandom(rel, n, pool_rng, cfg.skew);
      const PoolAccess b = ref.TouchRandom(rel, n, ref_rng, cfg.skew);
      ASSERT_EQ(a.pages_hit, b.pages_hit) << what << " step " << step;
      ASSERT_EQ(a.pages_missed, b.pages_missed) << what << " step " << step;
    } else if (op < 80) {
      what = "DirtyRandom";
      const int n = static_cast<int>(script_rng.NextBelow(8));
      const BufferPool::DirtyResult a = pool.DirtyRandom(rel, n, pool_rng, cfg.skew);
      const BufferPool::DirtyResult b = ref.DirtyRandom(rel, n, ref_rng, cfg.skew);
      ASSERT_EQ(a.access.pages_hit, b.access.pages_hit) << what << " step " << step;
      ASSERT_EQ(a.access.pages_missed, b.access.pages_missed) << what << " step " << step;
      ASSERT_EQ(a.newly_dirtied, b.newly_dirtied) << what << " step " << step;
    } else if (op < 88) {
      what = "TakeDirtyForFlush";
      const Pages max_pages = static_cast<Pages>(script_rng.NextBelow(20));
      ASSERT_EQ(pool.TakeDirtyForFlush(max_pages), ref.TakeDirtyForFlush(max_pages))
          << what << " step " << step;
    } else if (op < 93) {
      what = "DropRelation";
      pool.DropRelation(rel.id);
      ref.DropRelation(rel.id);
    } else if (op < 99) {
      what = "Resize";
      // Shrink or grow around the configured size, down to a single page.
      const Pages pages = 1 + static_cast<Pages>(script_rng.NextBelow(
                                  static_cast<uint64_t>(cfg.capacity_pages) * 2));
      pool.Resize(PagesToBytes(pages));
      ref.Resize(pages);
    } else if (op < 100) {
      what = "Clear";
      pool.Clear();
      ref.Clear();
    } else if (op < 102) {
      what = "Grow";
      // Relation sizes are mutable: the page directory, chunk table and
      // dirty bitmap must grow under resident entries.
      rel.pages += 1 + static_cast<Pages>(script_rng.NextBelow(64));
    } else {
      what = "MixedDrop";
      // A window scan, random touches and dirty pages, then a drop of the
      // relation holding all three at once; the per-step checks below
      // compare each call's effect.
      const Pages window = std::max<Pages>(rel.pages / 4, 1);
      pool.TouchScanWindow(rel, window, pool_rng, cfg.skew);
      ref.TouchScanWindow(rel, window, ref_rng, cfg.skew);
      pool.TouchRandom(rel, 6, pool_rng, cfg.skew);
      ref.TouchRandom(rel, 6, ref_rng, cfg.skew);
      pool.DirtyRandom(rel, 3, pool_rng, cfg.skew);
      ref.DirtyRandom(rel, 3, ref_rng, cfg.skew);
      const ReferencePool::Holdings held = ref.Held(rel.id);
      if (held.chunks > 0 && held.pages > 0 && held.dirty > 0) {
        ++mixed_drops;
      }
      pool.DropRelation(rel.id);
      ref.DropRelation(rel.id);
    }
    // Page-group memory tracks resident single pages, not relation sizes.
    const size_t singles = ref.SinglePageEntries();
    ASSERT_LE(pool.live_page_groups(), singles) << what << " step " << step;
    ASSERT_EQ(pool.live_page_groups() == 0, singles == 0) << what << " step " << step;
    ASSERT_EQ(pool.used_pages(), ref.used_pages()) << what << " step " << step;
    ASSERT_EQ(pool.dirty_pages(), ref.dirty_pages()) << what << " step " << step;
    ASSERT_LE(pool.used_pages(), pool.capacity_pages()) << what << " step " << step;
    for (const RelationMeta& r : rels) {
      ASSERT_EQ(pool.ResidentPages(r.id), ref.ResidentPages(r.id))
          << what << " step " << step << " relation " << r.id;
    }
    const BufferPoolStats& s = pool.stats();
    const BufferPoolStats& t = ref.stats();
    ASSERT_EQ(s.hits, t.hits) << what << " step " << step;
    ASSERT_EQ(s.misses, t.misses) << what << " step " << step;
    ASSERT_EQ(s.evicted_pages, t.evicted_pages) << what << " step " << step;
    ASSERT_EQ(s.dirtied_pages, t.dirtied_pages) << what << " step " << step;
    ASSERT_EQ(s.flushed_pages, t.flushed_pages) << what << " step " << step;
  }
}

// The first seed whose fresh Rng makes `draw` return `want`.
template <typename Draw>
uint64_t SeedDrawing(Draw draw, uint64_t want) {
  for (uint64_t seed = 1; seed < 100000; ++seed) {
    Rng probe(seed);
    if (draw(probe) == want) {
      return seed;
    }
  }
  ADD_FAILURE() << "no seed draws " << want;
  return 0;
}

// A relation to draw over and a seed whose one uniform draw
// (kUniformDraw) is `page`: page 0 is drawn over the whole relation, which
// sizes its page directory; any other page over the first page + 1 pages.
constexpr AccessSkew kUniformDraw{0.0, 0.0};
struct PageDraw {
  RelationMeta rel;
  uint64_t seed;
};
PageDraw DrawOf(const RelationMeta& rel, uint64_t page) {
  PageDraw d{rel, 0};
  if (page > 0) {
    d.rel.pages = static_cast<Pages>(page) + 1;
  }
  d.seed = SeedDrawing([&](Rng& r) { return kUniformDraw.SamplePage(r, d.rel.pages); }, page);
  return d;
}

// Runs each call on a BufferPool and a ReferencePool and checks that both
// report the same outcome.
class TwinPools {
 public:
  TwinPools(Pages capacity_pages, Pages chunk_pages)
      : pool_(PagesToBytes(capacity_pages), chunk_pages), ref_(capacity_pages, chunk_pages) {}

  PoolAccess TouchScan(const RelationMeta& rel) { return Check(pool_.TouchScan(rel), ref_.TouchScan(rel)); }

  // A window of `window` pages starting at page `start`: the uniform window
  // start is drawn from the first seed that yields `start`.
  PoolAccess TouchScanWindow(const RelationMeta& rel, Pages window, uint64_t start) {
    const AccessSkew uniform{1.0, 0.0};
    const uint64_t seed =
        SeedDrawing([&](Rng& r) { return uniform.SampleWindowStart(r, rel.pages, window); }, start);
    Rng a(seed);
    Rng b(seed);
    return Check(pool_.TouchScanWindow(rel, window, a, uniform),
                 ref_.TouchScanWindow(rel, window, b, uniform));
  }

  // One random touch of page `page`.
  PoolAccess TouchPage(const RelationMeta& rel, uint64_t page) {
    const PageDraw d = DrawOf(rel, page);
    Rng a(d.seed);
    Rng b(d.seed);
    return Check(pool_.TouchRandom(d.rel, 1, a, kUniformDraw),
                 ref_.TouchRandom(d.rel, 1, b, kUniformDraw));
  }

  // Shrinks both pools a page at a time, so eviction order is compared.
  void ShrinkComparing(const std::vector<RelationMeta>& rels) {
    for (Pages cap = pool_.used_pages(); cap >= 1; --cap) {
      pool_.Resize(PagesToBytes(cap));
      ref_.Resize(cap);
      for (const RelationMeta& r : rels) {
        ASSERT_EQ(pool_.ResidentPages(r.id), ref_.ResidentPages(r.id)) << "capacity " << cap;
      }
    }
  }

 private:
  PoolAccess Check(PoolAccess a, PoolAccess b) {
    EXPECT_EQ(a.pages_hit, b.pages_hit);
    EXPECT_EQ(a.pages_missed, b.pages_missed);
    EXPECT_EQ(pool_.used_pages(), ref_.used_pages());
    EXPECT_EQ(pool_.stats().evicted_pages, ref_.stats().evicted_pages);
    return a;
  }

  BufferPool pool_;
  ReferencePool ref_;
};

TEST(BufferPool, GroupStorageHoldsCapacityPlusOneGroups) {
  // A full 16-page pool whose pages each sit in their own page group takes a
  // 17th group on the next miss, before it evicts: the reserve made at the
  // first group covers that without growing.
  BufferPool pool(PagesToBytes(16), 8);
  const RelationMeta rel = MakeRel(0, 8 * 17);
  auto touch = [&](uint64_t page) {
    const PageDraw d = DrawOf(rel, page);
    Rng rng(d.seed);
    return pool.TouchRandom(d.rel, 1, rng, kUniformDraw).pages_missed;
  };
  EXPECT_EQ(touch(0), 1);
  uint64_t allocations = 0;
  {
    AllocGuard::Forbid forbid;
    for (uint64_t group = 1; group <= 16; ++group) {
      EXPECT_EQ(touch(group * 8), 1);
    }
    allocations = forbid.seen();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(pool.used_pages(), 16);
  EXPECT_EQ(pool.live_page_groups(), 16u);
  EXPECT_EQ(pool.stats().evicted_pages, 1u);
}

TEST(BufferPool, ScanRunEdgesMatchReferencePool) {
  // 4-page chunks, 8 chunks (32 pages) per group. Relation 0 has 22 full
  // chunks and a 2-page tail chunk 22, in groups 0 (chunks 0-7), 1 (8-15)
  // and 2 (16-22). Relation 1's page group is taken between chunk groups 0
  // and 1, so chunk 7's slot + 1 is its page 0, not chunk 8.
  TwinPools twins(1000, 4);
  const RelationMeta rel = MakeRel(0, 22 * 4 + 2);
  const RelationMeta other = MakeRel(1, 64);

  // Chunks 0-7 miss; then page 0 of relation 1 sits just ahead of chunk 7.
  EXPECT_EQ(twins.TouchScanWindow(rel, 32, 0).pages_missed, 32);
  EXPECT_EQ(twins.TouchPage(other, 0).pages_missed, 1);

  // The run 0-7 crosses into group 1, whose directory entry is empty: the
  // run ends and chunks 8 and 9 miss.
  PoolAccess a = twins.TouchScanWindow(rel, 40, 0);
  EXPECT_EQ(a.pages_hit, 32);
  EXPECT_EQ(a.pages_missed, 8);

  // A full scan: the run 0-9 crosses into the now live group 1, then
  // chunks 10-22 miss, the partial tail chunk included.
  a = twins.TouchScan(rel);
  EXPECT_EQ(a.pages_hit, 40);
  EXPECT_EQ(a.pages_missed, 50);

  // A full scan that is one run, ending on the partial tail chunk.
  EXPECT_EQ(twins.TouchScan(rel).pages_hit, 90);

  // Chunk 5 is touched alone, so it is resident but no longer just ahead of
  // chunk 4: a scan of chunks 0-5 makes two runs.
  EXPECT_EQ(twins.TouchPage(rel, 5 * 4 + 1).pages_hit, 1);
  EXPECT_EQ(twins.TouchScanWindow(rel, 24, 0).pages_hit, 24);

  // Windows starting mid-group: chunks 13-18 cross from group 1 into
  // group 2; chunks 19-22 end on the partial tail chunk.
  EXPECT_EQ(twins.TouchScanWindow(rel, 20, 13 * 4 + 2).pages_hit, 24);
  EXPECT_EQ(twins.TouchScanWindow(rel, 13, 19 * 4 + 1).pages_hit, 14);

  // A run broken mid-group whose hits end on the tail: chunk 20 alone,
  // then chunks 17-22.
  EXPECT_EQ(twins.TouchPage(rel, 20 * 4).pages_hit, 1);
  EXPECT_EQ(twins.TouchScanWindow(rel, 19, 17 * 4 + 3).pages_hit, 5 * 4 + 2);

  twins.ShrinkComparing({rel, other});
}

TEST(BufferPool, MatchesReferencePoolOnRandomSequences) {
  const AccessSkew hot{};                 // default two-level skew
  const AccessSkew uniform{1.0, 0.0};
  AccessSkew zipf;
  zipf.zipf_s = 1.1;
  const std::vector<DiffConfig> configs = {
      {5, 8, hot},        // smaller than one chunk, let alone one scan
      {40, 8, uniform},   // smaller than the large relations' scans
      {96, 4, zipf},
      {160, 8, hot},
      {600, 16, uniform},  // holds every relation: runs stay long
      // Relations spanning dozens to hundreds of page groups under uniform
      // skew, so groups are freed and reused constantly.
      {800, 32, uniform, {1000, 2500, 5000, 40, 7}},
      {3000, 16, zipf, {1200, 4100, 64}},
      // One- and two-page chunks: every chunk full, then tails of one page.
      {48, 1, hot},
      {90, 2, uniform},
      // Each relation's partial tail chunk is the first chunk of a group.
      {140, 4, uniform, {33, 66, 97, 131, 259}},
      {300, 8, hot, {65, 130, 262, 7}},
  };
  int mixed_drops = 0;
  for (const DiffConfig& cfg : configs) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunDifferential(cfg, seed, 3000, mixed_drops);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  EXPECT_GT(mixed_drops, 500);
}

}  // namespace
}  // namespace tashkent
