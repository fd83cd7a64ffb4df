#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cmath>

namespace tashkent {

uint64_t AccessSkew::SampleZipfRank(Rng& rng, uint64_t n) const {
  if (n <= 1) {
    return 0;
  }
  // Inverse CDF of the density f(x) ~ x^(-s) on [1, n+1): for s != 1,
  // x = (1 + u*((n+1)^(1-s) - 1))^(1/(1-s)); for s == 1, x = (n+1)^u.
  // floor(x) - 1 is the rank; the clamp guards the u -> 1 boundary.
  const double u = rng.NextDouble();
  const double top = static_cast<double>(n) + 1.0;
  double x;
  if (zipf_s == 1.0) {
    x = std::pow(top, u);
  } else {
    const double one_minus_s = 1.0 - zipf_s;
    x = std::pow(1.0 + u * (std::pow(top, one_minus_s) - 1.0), 1.0 / one_minus_s);
  }
  const uint64_t rank = static_cast<uint64_t>(x) - 1;
  return rank >= n ? n - 1 : rank;
}

uint64_t AccessSkew::SamplePage(Rng& rng, Pages pages) const {
  if (pages <= 1) {
    return 0;
  }
  if (zipf_s > 0.0) {
    return SampleZipfRank(rng, static_cast<uint64_t>(pages));
  }
  const Pages hot = std::max<Pages>(static_cast<Pages>(hot_fraction * static_cast<double>(pages)), 1);
  if (rng.NextBool(hot_weight)) {
    return rng.NextBelow(static_cast<uint64_t>(hot));
  }
  return rng.NextBelow(static_cast<uint64_t>(pages));
}

uint64_t AccessSkew::SampleWindowStart(Rng& rng, Pages pages, Pages window) const {
  if (window >= pages) {
    return 0;
  }
  const Pages span = pages - window;  // valid starts: [0, span]
  if (zipf_s > 0.0) {
    return SampleZipfRank(rng, static_cast<uint64_t>(span + 1));
  }
  const Pages hot_span = std::max<Pages>(
      std::min<Pages>(static_cast<Pages>(hot_fraction * static_cast<double>(pages)), span), 1);
  if (rng.NextBool(hot_weight)) {
    return rng.NextBelow(static_cast<uint64_t>(hot_span));
  }
  return rng.NextBelow(static_cast<uint64_t>(span + 1));
}

BufferPool::BufferPool(Bytes capacity, Pages chunk_pages)
    : capacity_pages_(std::max<Pages>(BytesToPages(capacity), 1)),
      chunk_pages_(std::max<Pages>(chunk_pages, 1)) {}

// --- LRU slab plumbing (shared SlabList helper) ------------------------------

BufferPool::RelState& BufferPool::State(RelationId rel) {
  const size_t idx = static_cast<size_t>(rel);
  if (idx >= rels_.size()) {
    rels_.resize(idx + 1);
  }
  return rels_[idx];
}

uint32_t BufferPool::PushEntry(uint64_t key, Pages weight, RelState& rs) {
  const uint32_t slot = lru_.Alloc();
  lru_[slot] = LruEntry{key, weight};
  lru_.PushFront(slot);
  used_pages_ += weight;
  rs.resident += weight;
  return slot;
}

Pages BufferPool::RemoveEntry(uint32_t slot) {
  const LruEntry e = lru_[slot];
  lru_.Unlink(slot);
  lru_.Free(slot);
  RelState& rs = rels_[KeyRelation(e.key)];
  if ((e.key & kChunkBit) != 0) {
    rs.chunk_slot[e.key & kIndexMask] = kNilSlot;
    --rs.resident_chunks;
  } else {
    index_.Erase(e.key);
  }
  used_pages_ -= e.weight;
  rs.resident -= e.weight;
  return e.weight;
}

void BufferPool::EvictToFit() {
  while (used_pages_ > capacity_pages_ && lru_.tail() != kNilSlot) {
    stats_.evicted_pages += static_cast<uint64_t>(RemoveEntry(lru_.tail()));
  }
}

bool BufferPool::TouchPage(RelState& rs, RelationId rel, uint64_t page) {
  if (rs.resident_chunks != 0) {
    const uint64_t chunk = page / static_cast<uint64_t>(chunk_pages_);
    if (chunk < rs.chunk_slot.size() && rs.chunk_slot[chunk] != kNilSlot) {
      lru_.MoveRunToFront(rs.chunk_slot[chunk], rs.chunk_slot[chunk]);
      return true;
    }
  }
  const uint64_t key = PageKey(rel, page);
  const OpenHashIndex::Lookup at = index_.FindForInsert(key);
  if (at.slot != OpenHashIndex::kNotFound) {
    lru_.MoveRunToFront(at.slot, at.slot);
    return true;
  }
  index_.InsertAt(at, key, PushEntry(key, 1, rs));
  EvictToFit();
  return false;
}

PoolAccess BufferPool::ScanChunks(const RelationMeta& rel, uint64_t first, uint64_t end) {
  PoolAccess out;
  const uint64_t full_chunks = static_cast<uint64_t>(rel.pages / chunk_pages_);
  const Pages tail = rel.pages % chunk_pages_;
  const uint64_t total_chunks = full_chunks + (tail > 0 ? 1 : 0);
  end = std::min(end, total_chunks);
  RelState& rs = State(rel.id);
  if (rs.chunk_slot.size() < total_chunks) {
    rs.chunk_slot.resize(total_chunks, kNilSlot);
  }
  std::vector<uint32_t>& slots = rs.chunk_slot;
  auto weight = [&](uint64_t c) { return c < full_chunks ? chunk_pages_ : tail; };
  for (uint64_t c = first; c < end; ++c) {
    const uint32_t back = slots[c];
    if (back == kNilSlot) {
      slots[c] = PushEntry(ChunkKey(rel.id, c), weight(c), rs);
      ++rs.resident_chunks;
      out.pages_missed += weight(c);
      EvictToFit();  // may evict this scan's own chunks, slots[c] included
      continue;
    }
    // Hit: the chunks that follow and already sit just ahead of this one in
    // the LRU form a run; moving it whole equals moving each in turn.
    uint32_t front = back;
    out.pages_hit += weight(c);
    while (c + 1 < end && slots[c + 1] != kNilSlot && lru_.prev(front) == slots[c + 1]) {
      front = slots[++c];
      out.pages_hit += weight(c);
    }
    lru_.MoveRunToFront(front, back);
  }
  stats_.hits += static_cast<uint64_t>(out.pages_hit);
  stats_.misses += static_cast<uint64_t>(out.pages_missed);
  return out;
}

// --- Dirty-FIFO slab plumbing ------------------------------------------------

void BufferPool::EraseDirty(uint32_t slot) {
  const uint64_t key = dirty_[slot].key;
  dirty_index_.Erase(key);
  --rels_[KeyRelation(key)].dirty;
  dirty_.Unlink(slot);
  dirty_.Free(slot);
}

// --- Public access paths -----------------------------------------------------

PoolAccess BufferPool::TouchScan(const RelationMeta& rel) {
  return ScanChunks(rel, 0, UINT64_MAX);
}

PoolAccess BufferPool::TouchScanWindow(const RelationMeta& rel, Pages window, Rng& rng,
                                       const AccessSkew& skew) {
  if (window <= 0 || window >= rel.pages) {
    return TouchScan(rel);
  }
  const uint64_t start_page = skew.SampleWindowStart(rng, rel.pages, window);
  const uint64_t last_page = start_page + static_cast<uint64_t>(window) - 1;
  const uint64_t chunk = static_cast<uint64_t>(chunk_pages_);
  return ScanChunks(rel, start_page / chunk, last_page / chunk + 1);
}

PoolAccess BufferPool::TouchRandom(const RelationMeta& rel, int n_pages, Rng& rng,
                                   const AccessSkew& skew) {
  PoolAccess out;
  if (rel.pages <= 0) {
    return out;
  }
  RelState& rs = State(rel.id);
  for (int i = 0; i < n_pages; ++i) {
    if (TouchPage(rs, rel.id, skew.SamplePage(rng, rel.pages))) {
      ++out.pages_hit;
    } else {
      ++out.pages_missed;
    }
  }
  stats_.hits += static_cast<uint64_t>(out.pages_hit);
  stats_.misses += static_cast<uint64_t>(out.pages_missed);
  return out;
}

BufferPool::DirtyResult BufferPool::DirtyRandom(const RelationMeta& rel, int n_pages, Rng& rng,
                                                const AccessSkew& skew) {
  DirtyResult out;
  if (rel.pages <= 0) {
    return out;
  }
  RelState& rs = State(rel.id);
  for (int i = 0; i < n_pages; ++i) {
    const uint64_t page = skew.SamplePage(rng, rel.pages);
    // Read-modify-write: a missing page is fetched before being modified.
    if (TouchPage(rs, rel.id, page)) {
      ++out.access.pages_hit;
    } else {
      ++out.access.pages_missed;
    }
    const uint64_t key = PageKey(rel.id, page);
    const OpenHashIndex::Lookup at = dirty_index_.FindForInsert(key);
    if (at.slot == OpenHashIndex::kNotFound) {
      const uint32_t slot = dirty_.Alloc();
      dirty_[slot].key = key;
      dirty_.PushBack(slot);
      dirty_index_.InsertAt(at, key, slot);
      ++rs.dirty;
      ++out.newly_dirtied;
    }
  }
  stats_.hits += static_cast<uint64_t>(out.access.pages_hit);
  stats_.misses += static_cast<uint64_t>(out.access.pages_missed);
  stats_.dirtied_pages += static_cast<uint64_t>(out.newly_dirtied);
  return out;
}

Pages BufferPool::TakeDirtyForFlush(Pages max_pages) {
  Pages taken = 0;
  while (taken < max_pages && dirty_.head() != kNilSlot) {
    EraseDirty(dirty_.head());
    ++taken;
  }
  stats_.flushed_pages += static_cast<uint64_t>(taken);
  return taken;
}

void BufferPool::DropRelation(RelationId rel) {
  if (static_cast<size_t>(rel) >= rels_.size()) {
    return;
  }
  RelState& rs = rels_[static_cast<size_t>(rel)];
  // Each walk stops once the relation's count reaches zero, so a drop that
  // removes nothing (common under update filtering) walks neither list.
  for (uint32_t slot = lru_.head(); slot != kNilSlot && rs.resident > 0;) {
    const uint32_t next = lru_.next(slot);
    if (KeyRelation(lru_[slot].key) == rel) {
      RemoveEntry(slot);
    }
    slot = next;
  }
  for (uint32_t slot = dirty_.head(); slot != kNilSlot && rs.dirty > 0;) {
    const uint32_t next = dirty_.next(slot);
    if (KeyRelation(dirty_[slot].key) == rel) {
      EraseDirty(slot);
    }
    slot = next;
  }
}

void BufferPool::Clear() {
  lru_.Clear();
  index_.Clear();
  dirty_.Clear();
  dirty_index_.Clear();
  rels_.clear();
  used_pages_ = 0;
}

void BufferPool::Resize(Bytes capacity) {
  capacity_pages_ = std::max<Pages>(BytesToPages(capacity), 1);
  EvictToFit();
}

Pages BufferPool::ResidentPages(RelationId rel) const {
  const size_t idx = static_cast<size_t>(rel);
  return idx < rels_.size() ? rels_[idx].resident : 0;
}

}  // namespace tashkent
