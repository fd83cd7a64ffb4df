#include "src/gsi/writeset_store.h"

#include <cstddef>
#include <utility>

namespace tashkent {

// --- WritesetArena -----------------------------------------------------------

void* WritesetArena::Allocate(size_t bytes, Version version) {
  // Round to max_align so consecutive allocations stay aligned.
  const size_t aligned = (bytes + alignof(std::max_align_t) - 1) &
                         ~(alignof(std::max_align_t) - 1);
  if (blocks_.empty() || blocks_.back().used + aligned > blocks_.back().capacity) {
    const size_t capacity = aligned > kBlockBytes ? aligned : kBlockBytes;
    Block block;
    // Reuse a spare of sufficient capacity (spares are all kBlockBytes unless
    // they served an oversized request; take any that fits).
    for (size_t i = 0; i < spares_.size(); ++i) {
      if (spares_[i].capacity >= capacity) {
        block = std::move(spares_[i]);
        spares_[i] = std::move(spares_.back());
        spares_.pop_back();
        break;
      }
    }
    if (block.mem == nullptr) {
      block.mem = std::make_unique<unsigned char[]>(capacity);
      block.capacity = capacity;
    }
    block.used = 0;
    block.last_version = version;
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  assert(version >= block.last_version && "arena allocations must follow commit order");
  void* mem = block.mem.get() + block.used;
  block.used += aligned;
  block.last_version = version;
  allocated_bytes_ += aligned;
  return mem;
}

void WritesetArena::PruneBelow(Version floor) {
  size_t dead = 0;
  while (dead < blocks_.size() && blocks_[dead].last_version <= floor) {
    ++dead;
  }
  for (size_t i = 0; i < dead; ++i) {
    Block block = std::move(blocks_[i]);
    allocated_bytes_ -= block.used;
    block.used = 0;
    block.last_version = 0;
    spares_.push_back(std::move(block));
  }
  blocks_.erase(blocks_.begin(), blocks_.begin() + static_cast<ptrdiff_t>(dead));
}

// --- WritesetLog -------------------------------------------------------------

const Writeset& WritesetLog::Append(Writeset ws, WritesetArena& arena) {
  // Interest mask first: it is the one step that can throw, so a rejected
  // writeset leaves the log untouched. Built exactly once, here, so every
  // later wanted-probe is a word-wise AND.
  const TableMask mask = ws.BuildMask();
  const uint64_t index = head_ - chunk_base_;  // global slot for version head_+1
  if (index / kChunkEntries >= chunks_.size()) {
    if (!spares_.empty()) {
      chunks_.push_back(std::move(spares_.back()));
      spares_.pop_back();
    } else {
      chunks_.push_back(std::make_unique<Chunk>());
    }
  }
  ++head_;
  assert(ws.commit_version == head_ && "log entries must be appended in version order");
  Chunk& chunk = *chunks_[index / kChunkEntries];
  Writeset& slot = chunk.entries[index % kChunkEntries];
  slot = std::move(ws);
  // Long-lived copies keep their spill in the arena, not the heap, so the
  // log's memory is reclaimed wholesale on prune.
  if (slot.items.spilled()) {
    slot.items.MoveSpillTo(arena.Allocate(slot.items.spill_bytes(), head_));
  }
  if (slot.table_pages.spilled()) {
    slot.table_pages.MoveSpillTo(arena.Allocate(slot.table_pages.spill_bytes(), head_));
  }
  chunk.masks[index % kChunkEntries] = mask;
  chunk.union_mask.OrWith(mask);
  return slot;
}

Version WritesetLog::SkipUnwanted(Version from, Version hi,
                                  const TableMask& sub) const {
  assert(from > pruned_below_ && "skip-scan start already pruned");
  assert(hi <= head_ && "skip-scan end not yet appended");
  Version v = from;
  while (v <= hi) {
    const uint64_t index = v - 1 - chunk_base_;
    const Chunk& chunk = *chunks_[index / kChunkEntries];
    if (Intersects(chunk.union_mask, sub)) {
      return v;  // chunk may hold a wanted entry; caller probes per version
    }
    // Whole chunk provably unwanted: hop to the first version of the next
    // chunk (clamped by the caller's range).
    const uint64_t chunk_start = (index / kChunkEntries) * kChunkEntries;
    v = chunk_base_ + chunk_start + kChunkEntries + 1;
  }
  return hi + 1;
}

void WritesetLog::PruneBelow(Version floor, WritesetArena& arena) {
  if (floor > head_) {
    floor = head_;
  }
  if (floor <= pruned_below_) {
    return;
  }
  pruned_below_ = floor;
  // Recycle chunks that now hold no live version. The chunk holding versions
  // (chunk_base_, chunk_base_ + kChunkEntries] is dead once floor covers its
  // last slot.
  size_t dead = 0;
  while ((dead + 1) * kChunkEntries + chunk_base_ <= floor && dead < chunks_.size()) {
    ++dead;
  }
  for (size_t i = 0; i < dead; ++i) {
    // Reset entries so spilled SmallVecs drop their (arena-external) views
    // and any stale payload before the chunk is reused; clear the masks and
    // union with them so a recycled chunk starts with an empty union.
    for (size_t e = 0; e < kChunkEntries; ++e) {
      chunks_[i]->entries[e] = Writeset{};
      chunks_[i]->masks[e].Reset();
    }
    chunks_[i]->union_mask.Reset();
    spares_.push_back(std::move(chunks_[i]));
  }
  chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<ptrdiff_t>(dead));
  chunk_base_ += dead * kChunkEntries;
  arena.PruneBelow(floor);
}

}  // namespace tashkent
