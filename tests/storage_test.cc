// Unit tests for schema catalog, buffer pool, and disk model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <tuple>
#include <vector>

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
  DiskModel d;
  d.sequential_read_mbps = 80.0;
  // 80 MB at 80 MB/s = 1 s.
  EXPECT_NEAR(ToSeconds(d.SequentialReadTime(BytesToPages(MiB(80)))), 1.0, 1e-6);
  EXPECT_EQ(d.RandomReadTime(10), 10 * d.random_read_per_page);
  EXPECT_EQ(d.WriteTime(4), 4 * d.write_per_page);
  // Random reads are far more expensive per byte than sequential.
  EXPECT_GT(d.RandomReadTime(1000), d.SequentialReadTime(1000));
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
};

void RunDifferential(const DiffConfig& cfg, uint64_t seed, int steps) {
  SCOPED_TRACE("capacity " + std::to_string(cfg.capacity_pages) + " chunk " +
               std::to_string(cfg.chunk_pages) + " seed " + std::to_string(seed));
  BufferPool pool(PagesToBytes(cfg.capacity_pages), cfg.chunk_pages);
  ReferencePool ref(cfg.capacity_pages, cfg.chunk_pages);
  // Sizes mix exact multiples of the chunk with partial tail chunks, a
  // relation smaller than one chunk, and relations larger than the pool.
  const std::vector<Pages> sizes = {3, 37, 64, 13, 121, 250, 8};
  std::vector<RelationMeta> rels;
  for (size_t i = 0; i < sizes.size(); ++i) {
    rels.push_back(MakeRel(static_cast<RelationId>(i), sizes[i]));
  }
  Rng script_rng(seed);
  // Both pools draw their samples from identically seeded streams.
  Rng pool_rng(seed * 7919 + 1);
  Rng ref_rng(seed * 7919 + 1);
  for (int step = 0; step < steps; ++step) {
    const RelationMeta& rel = rels[script_rng.NextBelow(rels.size())];
    const uint64_t op = script_rng.NextBelow(100);
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
    } else {
      what = "Clear";
      pool.Clear();
      ref.Clear();
    }
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
  };
  for (const DiffConfig& cfg : configs) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunDifferential(cfg, seed, 3000);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace tashkent
