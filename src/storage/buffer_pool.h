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
// the LRU is an intrusive doubly-linked list (ListOps, src/common/
// slab_list.h) over bare 8-byte {prev, next} links; nothing allocates per
// touch, and group storage grows once. Every entry is found by indexing,
// never by hashing or walking the list:
//   * LRU slots come in groups of 8 (kGroupShift = 3). A group covers 8
//     consecutive pages (a page group) or 8 consecutive chunks (a chunk
//     group) of one relation, and an entry's slot is computed from its page
//     or chunk number: group << 3 | (index & 7). A slot that is not resident
//     has prev == kAbsent, so one group's links are one cache line and a hit
//     is directory -> link -> neighbours.
//   * Each relation keeps a page directory (page >> 3 -> group) sized by its
//     first random touch, and a chunk directory (chunk >> 3 -> group) plus a
//     16-bit weight per chunk sized by its first scan. A weight is written
//     when its chunk is inserted, so a resident tail chunk keeps its weight
//     when the relation grows. A per-relation count of resident chunks lets
//     random touches skip the chunk directory while it holds nothing; when
//     they do probe it, the chunk is page >> chunk_shift_.
//   * Each group has an 8-byte header {base, relation, chunk flag, live
//     count}. A group is taken from the pool's free list when its first slot
//     becomes resident and recycled when its last one leaves, so group memory
//     tracks resident entries, not database size. Eviction reads the
//     victim's header to find its weight and the directory entry to clear.
//   * Live groups never exceed capacity_pages + 1: each holds a resident
//     entry of at least one page, and a fresh group is taken before
//     EvictToFit runs. The first fresh group that finds group storage full
//     reserves it to that bound, so it grows once (again only after a Resize
//     raises the bound), not by doubling. The constructor reserves nothing,
//     so building a cluster's pools stays cheap.
//   * A scan hit at chunk c extends a run while the LRU node just ahead of
//     the run is chunk c+1's, then splices the run to the front in O(1)
//     (ListOps::MoveRunToFront). That equals moving each chunk to the front
//     in turn — the run keeps its order — because a hit never evicts. Within
//     a group chunk c+1's slot is the next slot, so the run reads the chunk
//     directory only where it crosses into a new group, and its pages are
//     counted once, when it ends. A miss still inserts and evicts one chunk
//     at a time, so a scan that evicts its own untouched chunks behaves
//     exactly as before.
//   * TouchRandom and DirtyRandom build one page sampler per call, which
//     computes the relation's hot-set size once and inlines the two-level
//     draw. AccessSkew::SamplePage delegates to it, so one implementation
//     draws every page.
// The dirty FIFO is a SlabList; its dedup is a per-relation bitmap (one bit
// per page) allocated by the relation's first DirtyRandom, so a read-only
// relation never has one. DropRelation walks the relation's own
// directories, never the LRU.
// Limits, thrown as std::invalid_argument: chunk_pages is a power of two in
// [1, 2^15), checked by the constructor; relation ids < 2^16 and relation
// sizes < 2^32 pages, checked where tables are sized (never per page).
// Eviction order, hit outcomes and stats are bit-identical to the earlier
// std::list + unordered_map implementation (tests/storage_test.cc replays
// random call sequences against ReferencePool, a std::list + std::map model).
#ifndef SRC_STORAGE_BUFFER_POOL_H_
#define SRC_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

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

  // Samples a page in [0, pages); one draw of the pool's page sampler.
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
  // granularity; std::invalid_argument unless it is a power of two in
  // [1, 2^15).
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
  Pages dirty_pages() const { return dirty_pages_; }

  // Page groups currently holding at least one resident single page; never
  // more than the resident single-page entries.
  size_t live_page_groups() const { return live_page_groups_; }

  // Resident pages of one relation; the experimental working-set measurement
  // in Section 5.3 reads this.
  Pages ResidentPages(RelationId rel) const;

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

  Pages chunk_pages() const { return chunk_pages_; }

 private:
  // LRU slots come in groups of kGroupSlots consecutive slots. A group covers
  // kGroupSlots consecutive pages (a page group) or chunks (a chunk group) of
  // one relation, and an entry's slot is group << kGroupShift | (index &
  // kGroupMask), computed from its page or chunk number, never stored.
  static constexpr int kGroupShift = 3;
  static constexpr uint32_t kGroupSlots = 1u << kGroupShift;
  static constexpr uint64_t kGroupMask = kGroupSlots - 1;
  // The prev link of a slot that holds no resident entry. kNilSlot marks a
  // list end, so a resident slot's prev is never kAbsent.
  static constexpr uint32_t kAbsent = kNilSlot - 1;
  static_assert(sizeof(ListLink) * kGroupSlots == 64, "one group's links fill one cache line");

  // What a group's slots hold; eviction reads it to find the entry's weight
  // and the directory entry to clear. A free group chains to the next free
  // one through `base`.
  struct Group {
    uint32_t base;  // page (or chunk) >> kGroupShift: its directory index
    uint16_t rel;   // relation id
    uint8_t chunk;  // 1 for a chunk group, 0 for a page group
    uint8_t live;   // resident slots
  };
  static_assert(sizeof(Group) == 8, "group headers are 8 bytes");

  // Dirty-FIFO entry payload; the SlabList threads insertion order
  // (front = oldest).
  struct DirtyEntry {
    uint32_t page;
    uint32_t rel;
  };

  // Per-relation bookkeeping, indexed by relation id.
  struct RelState {
    std::vector<uint32_t> page_group;    // page >> kGroupShift -> group, kNilSlot if none
    std::vector<uint32_t> chunk_group;   // chunk >> kGroupShift -> group, kNilSlot if none
    std::vector<uint16_t> chunk_weight;  // pages of each chunk, written when it is inserted
    std::vector<uint64_t> dirty_bits;    // one bit per page pending in the dirty FIFO
    uint32_t resident_chunks = 0;        // chunk entries currently in the LRU
    Pages resident = 0;                  // resident pages (chunks + single pages)
    Pages dirty = 0;                     // pages pending in the dirty FIFO
  };

  RelState& State(RelationId rel);
  // State() with the page directory sized to the relation; the entry to
  // TouchRandom and DirtyRandom.
  RelState& PageState(const RelationMeta& rel);
  // Touches chunks [first, end) of `rel` in order; the one scan loop behind
  // TouchScan and TouchScanWindow.
  PoolAccess ScanChunks(const RelationMeta& rel, uint64_t first, uint64_t end);
  // Touches one page of a random access; returns true on a hit. On a miss the
  // page is inserted as a single-page entry (and the pool evicts to fit).
  bool TouchPage(RelState& rs, RelationId rel, uint64_t page);
  // The slot of `index` under directory entry `group`, taking a fresh group
  // for the directory entry if it has none.
  uint32_t SlotFor(uint32_t& group, RelationId rel, uint64_t index, bool chunk);
  // Free list first; a fresh group first reserves storage for the most
  // groups that can be live at once.
  uint32_t TakeGroup(RelationId rel, uint64_t index, bool chunk);
  // Links the non-resident `slot` at the MRU end; no eviction.
  void Insert(uint32_t slot, Pages weight, RelState& rs);
  Pages RemoveEntry(uint32_t slot);  // unlinks, clears its directory entry if last; returns weight
  void EvictToFit();
  void EraseDirty(uint32_t slot);

  Pages capacity_pages_;
  Pages chunk_pages_;
  int chunk_shift_;  // log2(chunk_pages_): page >> chunk_shift_ is its chunk
  Pages used_pages_ = 0;

  std::vector<ListLink> links_;  // kGroupSlots per group; prev == kAbsent if not resident
  std::vector<Group> groups_;    // one header per group
  uint32_t free_group_ = kNilSlot;
  size_t live_page_groups_ = 0;
  ListOps lru_;                  // recency list over links_: front = MRU, back = victim

  SlabList<DirtyEntry> dirty_;     // write-back FIFO: front = oldest
  Pages dirty_pages_ = 0;

  std::vector<RelState> rels_;

  BufferPoolStats stats_;
};

}  // namespace tashkent

#endif  // SRC_STORAGE_BUFFER_POOL_H_
