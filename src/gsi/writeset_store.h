// Long-lived writeset storage for the certifier: a chunked append-only log
// with stable addresses, plus the arena that owns spilled (oversized) row
// buffers.
//
// The certifier log is the one place writesets outlive their transaction:
// every committed writeset is appended and later read by replicas pulling
// updates (by reference — proxies hold log versions, never copies). Two
// requirements shape the store:
//
//   * stable addresses — proxies dereference log entries while the log keeps
//     growing, so entries never move once appended (chunks are allocated
//     whole and never reallocated);
//   * allocation-free steady state — appending moves the writeset into the
//     current chunk (SmallVec moves copy live elements only); a fresh chunk
//     is needed once per kChunkEntries commits and recycled after pruning.
//
// WritesetArena backs the rare spilled writeset (more rows than the inline
// capacity): on append the log re-homes heap spills into arena blocks
// (SmallVec::MoveSpillTo), so log memory is wholly owned by chunk + arena and
// PruneBelow(floor) reclaims both in O(chunks): arena blocks record the last
// commit version that allocated from them, and allocation order equals
// commit order, so a prefix prune of the log frees a prefix of arena blocks.
//
// Contract: PruneBelow(floor) requires that no replica will ever ask for a
// version <= floor again — i.e. every replica has durably applied through
// floor (a checkpoint install in flight counts as its image version). Future
// joiners are covered by the checkpoint-transfer join path: they install an
// image at some version >= floor and replay only the suffix. The cluster's
// auto-pruner (ClusterConfig::checkpoint) computes this floor periodically.
#ifndef SRC_GSI_WRITESET_STORE_H_
#define SRC_GSI_WRITESET_STORE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/gsi/writeset.h"

namespace tashkent {

// Bump allocator for spilled writeset row buffers. Blocks are version-tagged
// so a log prune can free every block whose allocations are all at or below
// the prune floor; freed blocks are recycled, not returned to the heap.
class WritesetArena {
 public:
  static constexpr size_t kBlockBytes = 64 * 1024;

  WritesetArena() = default;
  WritesetArena(const WritesetArena&) = delete;
  WritesetArena& operator=(const WritesetArena&) = delete;

  // Returns `bytes` of storage tagged with the commit version of the
  // writeset it belongs to. Versions must be non-decreasing across calls
  // (allocation order = commit order). Oversized requests get a dedicated
  // block.
  void* Allocate(size_t bytes, Version version);

  // Frees (recycles) every block whose last allocation is at or below
  // `floor`. Memory of live versions is untouched.
  void PruneBelow(Version floor);

  size_t live_blocks() const { return blocks_.size(); }
  size_t spare_blocks() const { return spares_.size(); }
  uint64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> mem;
    size_t capacity = 0;
    size_t used = 0;
    Version last_version = 0;
  };

  std::vector<Block> blocks_;  // oldest first; versions non-decreasing
  std::vector<Block> spares_;  // recycled blocks awaiting reuse
  uint64_t allocated_bytes_ = 0;
};

// Append-only chunked store of committed writesets, indexed by commit
// version (dense from 1). Addresses are stable for the entry's lifetime;
// PruneBelow drops a prefix and recycles its chunks.
class WritesetLog {
 public:
  static constexpr size_t kChunkEntries = 256;

  WritesetLog() = default;
  WritesetLog(const WritesetLog&) = delete;
  WritesetLog& operator=(const WritesetLog&) = delete;

  // Appends the writeset as version head()+1 (ws.commit_version must already
  // say so); heap spills are re-homed into `arena`. The entry's TableMask is
  // stored alongside it and OR-ed into the chunk's union mask for the
  // update-filtering fast path. Throws std::out_of_range, leaving the log
  // unchanged, when the writeset touches a relation id past TableMask::kBits.
  // Returns the stored entry.
  const Writeset& Append(Writeset ws, WritesetArena& arena);

  // The entry with commit version `v`; v must be in (pruned_below, head].
  const Writeset& Get(Version v) const {
    assert(v > pruned_below_ && v <= head_ && "version pruned or not yet appended");
    const uint64_t index = v - 1 - chunk_base_;
    return chunks_[index / kChunkEntries]->entries[index % kChunkEntries];
  }

  // The TableMask stored with entry `v` (same domain as Get).
  const TableMask& MaskOf(Version v) const {
    assert(v > pruned_below_ && v <= head_ && "version pruned or not yet appended");
    const uint64_t index = v - 1 - chunk_base_;
    return chunks_[index / kChunkEntries]->masks[index % kChunkEntries];
  }

  // Chunk skip-scan for the apply pump: starting at `from`, returns the
  // first version in [from, hi] whose chunk's union mask intersects `sub`
  // (or hi+1 if every remaining chunk misses). A chunk whose union is
  // disjoint from `sub` holds no wanted entry, because every entry mask's
  // bits are in the union. Versions within a partially-missed chunk are NOT
  // filtered here; the caller still probes them one by one. Requires
  // from > pruned_below and hi <= head.
  Version SkipUnwanted(Version from, Version hi, const TableMask& sub) const;

  Version head() const { return head_; }
  Version pruned_below() const { return pruned_below_; }
  // Live entries, i.e. versions (pruned_below, head].
  size_t size() const { return static_cast<size_t>(head_ - pruned_below_); }

  // Drops entries with version <= floor (clamped to head) and recycles
  // fully-dead chunks plus the matching arena blocks. See the contract above.
  void PruneBelow(Version floor, WritesetArena& arena);

  size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    Writeset entries[kChunkEntries];
    // Per-entry interest masks plus their running OR over every entry
    // appended to this chunk since it was (re)issued. The union is
    // conservative by construction: it may keep bits of entries already
    // pruned/applied (it is never narrowed in place), so it can only
    // suppress a skip, never cause a wrong one.
    TableMask masks[kChunkEntries];
    TableMask union_mask;
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;  // front chunk starts at chunk_base_
  std::vector<std::unique_ptr<Chunk>> spares_;  // recycled chunks awaiting reuse
  uint64_t chunk_base_ = 0;   // global (version-1) index of chunks_[0]'s first slot
  Version head_ = 0;          // last appended version
  Version pruned_below_ = 0;  // every version <= this has been dropped
};

}  // namespace tashkent

#endif  // SRC_GSI_WRITESET_STORE_H_
