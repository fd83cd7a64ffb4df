// Chunked-LRU buffer pool modeling a replica's database cache plus OS page
// cache.
//
// Tracking every 8 KB page individually is too slow for the paper's
// 81-experiment sweep, so residency is tracked at two granularities:
//   * chunks (default 32 pages = 256 KB) inserted by sequential scans, and
//   * single pages inserted by random (index) accesses.
// Both live on one LRU list with weights equal to their page counts, so a
// large scan evicts cached random pages exactly the way the paper describes
// ("every time it runs it displaces the pages for other transaction types").
//
// Dirty pages are tracked separately from residency: writes enter a dirty set
// that the replica's background writer drains through the disk channel. This
// separation means evicting a dirty entry never loses the pending write-back
// cost, and write-back I/O competes with reads on the channel — the effect
// update filtering removes.
//
// Hot-path layout (docs/ARCHITECTURE.md, "Hot path & performance model"):
// the LRU is an intrusive doubly-linked list threaded through a free-listed
// slab (SlabList, src/common/slab_list.h); nothing allocates per touch, only
// amortized slab/table growth. Each entry is found without walking the list:
//   * Chunk entries sit in a per-relation slot table (chunk number -> LRU
//     slot), sized to the relation's chunk count by the first scan that
//     touches it. A per-relation count of resident chunks lets random
//     touches skip the table entirely while a relation has no chunks cached.
//   * Single-page entries sit in an OpenHashIndex on the packed page key,
//     probed once per touch with find-or-insert (FindForInsert/InsertAt).
//   * A scan hit at chunk c extends a run while the LRU node just ahead of
//     the run is chunk c+1's, then splices the run to the front in O(1)
//     (SlabList::MoveRunToFront). That equals moving each chunk to the front
//     in turn — the run keeps its order — because a hit never evicts. A miss
//     still inserts and evicts one chunk at a time, so a scan that evicts its
//     own untouched chunks behaves exactly as before.
// The dirty FIFO is a second SlabList with its own OpenHashIndex for dedup.
// Eviction order, hit outcomes and stats are bit-identical to the earlier
// std::list + unordered_map implementation (bench/legacy_baseline.h keeps a
// frozen copy; the perf campaign compares checksums).
#ifndef SRC_STORAGE_BUFFER_POOL_H_
#define SRC_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/open_hash.h"
#include "src/common/rng.h"
#include "src/common/slab_list.h"
#include "src/common/units.h"
#include "src/storage/relation.h"

namespace tashkent {

// Outcome of touching data through the pool.
struct PoolAccess {
  Pages pages_hit = 0;     // served from memory
  Pages pages_missed = 0;  // must be read from disk
};

// Hot/cold access skew: `hot_weight` of the accesses fall into the leading
// `hot_fraction` of a relation's pages (recent orders, active users, popular
// items). This is what lets a dedicated replica cache a transaction type's
// hot core even when the referenced relations exceed memory, and is the gap
// between the MALB-SC over-estimate and the measured working sets in
// Section 5.3.
struct AccessSkew {
  double hot_fraction = 0.35;
  double hot_weight = 0.90;
  // Zipfian rank-popularity exponent. 0 (the default) keeps the two-level
  // hot/cold model above — and its exact RNG draw sequence, which the golden
  // digest pins. > 0 replaces the page draw with a bounded Zipf(s) rank
  // sample over the relation's pages: page 0 is the hottest rank and
  // P(rank r) ~ 1/(r+1)^s. Typical web skews are s in [0.6, 1.3].
  double zipf_s = 0.0;

  // Samples a page in [0, pages).
  uint64_t SamplePage(Rng& rng, Pages pages) const;
  // Samples a window start so the window [start, start+window) stays in
  // range.
  uint64_t SampleWindowStart(Rng& rng, Pages pages, Pages window) const;
  // Samples a rank in [0, n) with P(rank r) proportional to 1/(r+1)^zipf_s,
  // via the inverse CDF of the continuous bounded power law — one uniform
  // draw per sample, no per-n tables, so the cost is independent of n and
  // the draw count is identical across ranks (determinism under --jobs N).
  uint64_t SampleZipfRank(Rng& rng, uint64_t n) const;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evicted_pages = 0;
  uint64_t dirtied_pages = 0;
  uint64_t flushed_pages = 0;
};

class BufferPool {
 public:
  // `capacity` is the usable cache size in bytes (RAM minus the 70 MB the
  // paper reserves for OS/PostgreSQL/proxy/daemons). `chunk_pages` sets scan
  // granularity.
  BufferPool(Bytes capacity, Pages chunk_pages = 32);

  // A full sequential scan of the relation: touches every chunk, returns how
  // many pages were already resident vs. need disk reads, and leaves the
  // relation's chunks at the MRU end (evicting LRU entries as needed).
  PoolAccess TouchScan(const RelationMeta& rel);

  // A windowed sequential scan: `window` contiguous pages starting at a
  // skew-sampled offset (a parameterized slice of the relation).
  PoolAccess TouchScanWindow(const RelationMeta& rel, Pages window, Rng& rng,
                             const AccessSkew& skew);

  // `n_pages` random page accesses into the relation (index lookups, row
  // fetches), sampled with the given skew; hits leave entries refreshed,
  // misses insert single-page entries.
  PoolAccess TouchRandom(const RelationMeta& rel, int n_pages, Rng& rng,
                         const AccessSkew& skew = {});

  // Marks `n_pages` skew-sampled pages of the relation dirty (an update or a
  // remote writeset application). The pages become resident
  // (read-modify-write) and enter the dirty set. Returns accesses needed to
  // read the pages plus the count of *newly* dirtied pages (already-dirty
  // pages coalesce, modeling multiple updates to one page between
  // write-backs).
  struct DirtyResult {
    PoolAccess access;
    Pages newly_dirtied = 0;
  };
  DirtyResult DirtyRandom(const RelationMeta& rel, int n_pages, Rng& rng,
                          const AccessSkew& skew = {});

  // Removes up to `max_pages` pages from the dirty set (oldest first) and
  // returns how many were taken; the caller charges the disk channel for the
  // write-back.
  Pages TakeDirtyForFlush(Pages max_pages);

  // Drops every resident entry and pending dirty page of `rel`; used when
  // update filtering lets a replica discard an unused table.
  void DropRelation(RelationId rel);

  // Empties the pool entirely (crash recovery: RAM contents are lost).
  void Clear();

  // Changes the usable cache size in bytes at runtime (elastic memory
  // resizing). Shrinking evicts LRU entries down to the new capacity; pending
  // dirty pages keep their write-back cost either way.
  void Resize(Bytes capacity);

  Pages capacity_pages() const { return capacity_pages_; }
  Pages used_pages() const { return used_pages_; }
  Pages dirty_pages() const { return static_cast<Pages>(dirty_index_.size()); }

  // Resident pages of one relation; the experimental working-set measurement
  // in Section 5.3 reads this.
  Pages ResidentPages(RelationId rel) const;

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

  Pages chunk_pages() const { return chunk_pages_; }

 private:
  // Entry key: bit 63 selects chunk (1) vs page (0) keyspace; relation id in
  // bits 40..62; chunk/page index in bits 0..39. Eviction and DropRelation
  // read it back to find the table entry to clear.
  static constexpr uint64_t kChunkBit = 1ULL << 63;
  static constexpr uint64_t kIndexMask = (1ULL << 40) - 1;
  static uint64_t ChunkKey(RelationId rel, uint64_t chunk) {
    return kChunkBit | (static_cast<uint64_t>(rel) << 40) | chunk;
  }
  static uint64_t PageKey(RelationId rel, uint64_t page) {
    return (static_cast<uint64_t>(rel) << 40) | page;
  }
  static RelationId KeyRelation(uint64_t key) {
    return static_cast<RelationId>((key >> 40) & 0x7fffff);
  }

  // LRU entry payload; the SlabList threads the recency links (front = MRU).
  struct LruEntry {
    uint64_t key = 0;
    Pages weight = 0;
  };

  // Dirty-FIFO entry payload; the SlabList threads insertion order
  // (front = oldest).
  struct DirtyEntry {
    uint64_t key = 0;
  };

  // Per-relation bookkeeping, indexed by relation id.
  struct RelState {
    std::vector<uint32_t> chunk_slot;  // chunk number -> LRU slot, kNilSlot if absent
    uint32_t resident_chunks = 0;      // chunk entries currently in the LRU
    Pages resident = 0;                // resident pages (chunks + single pages)
    Pages dirty = 0;                   // pages pending in the dirty FIFO
  };

  RelState& State(RelationId rel);
  // Touches chunks [first, end) of `rel` in order; the one scan loop behind
  // TouchScan and TouchScanWindow.
  PoolAccess ScanChunks(const RelationMeta& rel, uint64_t first, uint64_t end);
  // Touches one page of a random access; returns true on a hit. On a miss the
  // page is inserted as a single-page entry (and the pool evicts to fit).
  bool TouchPage(RelState& rs, RelationId rel, uint64_t page);
  uint32_t PushEntry(uint64_t key, Pages weight, RelState& rs);  // at MRU, no eviction
  Pages RemoveEntry(uint32_t slot);  // unlinks, frees, clears its lookup; returns weight
  void EvictToFit();
  void EraseDirty(uint32_t slot);

  Pages capacity_pages_;
  Pages chunk_pages_;
  Pages used_pages_ = 0;

  SlabList<LruEntry> lru_;         // recency list: front = MRU, back = victim
  OpenHashIndex index_;            // packed page key -> LRU slab slot (pages only)

  SlabList<DirtyEntry> dirty_;     // write-back FIFO: front = oldest
  OpenHashIndex dirty_index_;      // packed page key -> dirty slab slot (dedup)

  std::vector<RelState> rels_;

  BufferPoolStats stats_;
};

}  // namespace tashkent

#endif  // SRC_STORAGE_BUFFER_POOL_H_
