#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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

namespace {

// Draws pages in [0, pages) under one skew. Built once per TouchRandom or
// DirtyRandom call, so the hot-set size is computed once, not per page. The
// two-level draw is the hot/cold choice, then a uniform page below the hot
// size or the relation size; Zipf and single-page relations take
// AccessSkew's own path.
class PageSampler {
 public:
  PageSampler(const AccessSkew& skew, Pages pages)
      : skew_(skew),
        hot_weight_(skew.hot_weight),
        pages_(pages),
        hot_(pages <= 1 || skew.zipf_s > 0.0
                 ? 0
                 : static_cast<uint64_t>(std::max<Pages>(
                       static_cast<Pages>(skew.hot_fraction * static_cast<double>(pages)), 1))) {}

  uint64_t Next(Rng& rng) const {
    if (hot_ != 0) {
      return rng.NextBelow(rng.NextBool(hot_weight_) ? hot_ : static_cast<uint64_t>(pages_));
    }
    return pages_ > 1 ? skew_.SampleZipfRank(rng, static_cast<uint64_t>(pages_)) : 0;
  }

 private:
  const AccessSkew& skew_;
  double hot_weight_;
  Pages pages_;
  uint64_t hot_;  // hot-set size of the two-level draw; 0 for the other paths
};

}  // namespace

uint64_t AccessSkew::SamplePage(Rng& rng, Pages pages) const {
  return PageSampler(*this, pages).Next(rng);
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

namespace {

// Pool key limits: a group header packs a 32-bit page or chunk group index
// and a 16-bit relation id, and chunk_weight is 16 bits wide.
constexpr uint64_t kMaxRelations = uint64_t{1} << 16;
constexpr Pages kMaxRelationPages = Pages{1} << 32;
constexpr Pages kMaxChunkPages = Pages{1} << 15;

// A power of two, so a page's chunk is a shift, not a division.
Pages CheckedChunkPages(Pages chunk_pages) {
  if (chunk_pages < 1 || chunk_pages >= kMaxChunkPages || (chunk_pages & (chunk_pages - 1)) != 0) {
    throw std::invalid_argument("BufferPool: chunk_pages " + std::to_string(chunk_pages) +
                                " is not a power of two in [1, 2^15)");
  }
  return chunk_pages;
}

void CheckRelationPages(const RelationMeta& rel) {
  if (rel.pages >= kMaxRelationPages) {
    throw std::invalid_argument("BufferPool: relation " + std::to_string(rel.id) + " has " +
                                std::to_string(rel.pages) + " pages, limit is 2^32");
  }
}

}  // namespace

BufferPool::BufferPool(Bytes capacity, Pages chunk_pages)
    : capacity_pages_(std::max<Pages>(BytesToPages(capacity), 1)),
      chunk_pages_(CheckedChunkPages(chunk_pages)),
      chunk_shift_(__builtin_ctzll(static_cast<uint64_t>(chunk_pages_))) {}

// --- Grouped LRU slots ---------------------------------------------------------

BufferPool::RelState& BufferPool::State(RelationId rel) {
  const size_t idx = static_cast<size_t>(rel);
  if (idx >= rels_.size()) {
    if (idx >= kMaxRelations) {
      throw std::invalid_argument("BufferPool: relation id " + std::to_string(rel) +
                                  " is not below 2^16");
    }
    rels_.resize(idx + 1);
  }
  return rels_[idx];
}

BufferPool::RelState& BufferPool::PageState(const RelationMeta& rel) {
  RelState& rs = State(rel.id);
  const size_t groups = static_cast<size_t>((rel.pages + kGroupMask) >> kGroupShift);
  if (rs.page_group.size() < groups) {
    CheckRelationPages(rel);
    rs.page_group.resize(groups, kNilSlot);
  }
  return rs;
}

uint32_t BufferPool::TakeGroup(RelationId rel, uint64_t index, bool chunk) {
  uint32_t group = free_group_;
  if (group != kNilSlot) {
    free_group_ = groups_[group].base;
  } else {
    group = static_cast<uint32_t>(groups_.size());
    if (groups_.size() == groups_.capacity()) {
      // Every live group holds a resident entry of at least one page and a
      // fresh group is taken before EvictToFit runs, so at most
      // capacity_pages_ + 1 are live: grow to that bound once, not by
      // doubling.
      const size_t bound = static_cast<size_t>(capacity_pages_) + 1;
      groups_.reserve(bound);
      links_.reserve(bound * kGroupSlots);
    }
    groups_.emplace_back();
    // push_back, not resize: resize's out-of-line fill costs a call per fresh
    // group, and a cold pool takes one on most misses.
    for (uint32_t i = 0; i < kGroupSlots; ++i) {
      links_.push_back(ListLink{kAbsent, kNilSlot});
    }
  }
  groups_[group] = Group{static_cast<uint32_t>(index >> kGroupShift), static_cast<uint16_t>(rel),
                         static_cast<uint8_t>(chunk), 0};
  if (!chunk) {
    ++live_page_groups_;
  }
  return group;
}

inline uint32_t BufferPool::SlotFor(uint32_t& group, RelationId rel, uint64_t index, bool chunk) {
  if (group == kNilSlot) {
    group = TakeGroup(rel, index, chunk);
  }
  return group << kGroupShift | static_cast<uint32_t>(index & kGroupMask);
}

void BufferPool::Insert(uint32_t slot, Pages weight, RelState& rs) {
  ++groups_[slot >> kGroupShift].live;
  lru_.PushFront(links_, slot);
  used_pages_ += weight;
  rs.resident += weight;
}

Pages BufferPool::RemoveEntry(uint32_t slot) {
  lru_.Unlink(links_, slot);
  links_[slot].prev = kAbsent;
  const uint32_t group = slot >> kGroupShift;
  Group& g = groups_[group];
  RelState& rs = rels_[g.rel];
  Pages weight = 1;
  uint32_t* entry = nullptr;
  if (g.chunk != 0) {
    weight = rs.chunk_weight[uint64_t{g.base} << kGroupShift | (slot & kGroupMask)];
    entry = &rs.chunk_group[g.base];
    --rs.resident_chunks;
  } else {
    entry = &rs.page_group[g.base];
  }
  if (--g.live == 0) {
    if (g.chunk == 0) {
      --live_page_groups_;
    }
    g.base = free_group_;
    free_group_ = group;
    *entry = kNilSlot;
  }
  used_pages_ -= weight;
  rs.resident -= weight;
  return weight;
}

void BufferPool::EvictToFit() {
  while (used_pages_ > capacity_pages_ && lru_.tail() != kNilSlot) {
    stats_.evicted_pages += static_cast<uint64_t>(RemoveEntry(lru_.tail()));
  }
}

bool BufferPool::TouchPage(RelState& rs, RelationId rel, uint64_t page) {
  if (rs.resident_chunks != 0) {
    const uint64_t chunk = page >> chunk_shift_;
    if ((chunk >> kGroupShift) < rs.chunk_group.size()) {
      const uint32_t group = rs.chunk_group[chunk >> kGroupShift];
      const uint32_t slot = group << kGroupShift | static_cast<uint32_t>(chunk & kGroupMask);
      if (group != kNilSlot && links_[slot].prev != kAbsent) {
        lru_.MoveRunToFront(links_, slot, slot);
        return true;
      }
    }
  }
  const uint32_t slot = SlotFor(rs.page_group[page >> kGroupShift], rel, page, false);
  if (links_[slot].prev != kAbsent) {
    lru_.MoveRunToFront(links_, slot, slot);
    return true;
  }
  Insert(slot, 1, rs);
  EvictToFit();  // never evicts this page, so its group stays live
  return false;
}

PoolAccess BufferPool::ScanChunks(const RelationMeta& rel, uint64_t first, uint64_t end) {
  PoolAccess out;
  const uint64_t full_chunks = static_cast<uint64_t>(rel.pages >> chunk_shift_);
  const Pages tail = rel.pages & (chunk_pages_ - 1);
  const uint64_t total_chunks = full_chunks + (tail > 0 ? 1 : 0);
  end = std::min(end, total_chunks);
  RelState& rs = State(rel.id);
  if (rs.chunk_weight.size() < total_chunks) {
    CheckRelationPages(rel);
    rs.chunk_weight.resize(total_chunks, 0);
    rs.chunk_group.resize((total_chunks + kGroupMask) >> kGroupShift, kNilSlot);
  }
  auto weight = [&](uint64_t c) { return c < full_chunks ? chunk_pages_ : tail; };
  for (uint64_t c = first; c < end; ++c) {
    const uint32_t back = SlotFor(rs.chunk_group[c >> kGroupShift], rel.id, c, true);
    if (links_[back].prev == kAbsent) {
      rs.chunk_weight[c] = static_cast<uint16_t>(weight(c));
      Insert(back, weight(c), rs);
      ++rs.resident_chunks;
      out.pages_missed += weight(c);
      EvictToFit();  // may evict this scan's own chunks, chunk c included
      continue;
    }
    // Hit: the chunks that follow and already sit just ahead of this one in
    // the LRU form a run; moving it whole equals moving each in turn. A
    // linked node's prev is resident, so matching chunk c+1's slot is enough.
    // Inside a group that slot is the next one; only a run that crosses into
    // a new group reads the directory.
    const uint64_t run_first = c;
    uint32_t front = back;
    while (c + 1 < end) {
      uint32_t next = front + 1;
      if (((c + 1) & kGroupMask) == 0) {
        const uint32_t group = rs.chunk_group[(c + 1) >> kGroupShift];
        if (group == kNilSlot) {
          break;
        }
        next = group << kGroupShift;
      }
      if (links_[front].prev != next) {
        break;
      }
      front = next;
      ++c;
    }
    // Only the relation's last chunk can be partial, and it can only end a run.
    out.pages_hit += static_cast<Pages>(c - run_first + 1) * chunk_pages_ -
                     (c < full_chunks ? 0 : chunk_pages_ - tail);
    lru_.MoveRunToFront(links_, front, back);
  }
  stats_.hits += static_cast<uint64_t>(out.pages_hit);
  stats_.misses += static_cast<uint64_t>(out.pages_missed);
  return out;
}

// --- Dirty-FIFO slab plumbing ------------------------------------------------

void BufferPool::EraseDirty(uint32_t slot) {
  const DirtyEntry e = dirty_[slot];
  RelState& rs = rels_[e.rel];
  rs.dirty_bits[e.page >> 6] &= ~(uint64_t{1} << (e.page & 63));
  --rs.dirty;
  --dirty_pages_;
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
  return ScanChunks(rel, start_page >> chunk_shift_, (last_page >> chunk_shift_) + 1);
}

PoolAccess BufferPool::TouchRandom(const RelationMeta& rel, int n_pages, Rng& rng,
                                   const AccessSkew& skew) {
  PoolAccess out;
  if (rel.pages <= 0) {
    return out;
  }
  RelState& rs = PageState(rel);
  const PageSampler sampler(skew, rel.pages);
  for (int i = 0; i < n_pages; ++i) {
    if (TouchPage(rs, rel.id, sampler.Next(rng))) {
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
  RelState& rs = PageState(rel);
  const size_t words = static_cast<size_t>((rel.pages + 63) >> 6);
  if (rs.dirty_bits.size() < words) {
    rs.dirty_bits.resize(words, 0);
  }
  const PageSampler sampler(skew, rel.pages);
  for (int i = 0; i < n_pages; ++i) {
    const uint64_t page = sampler.Next(rng);
    // Read-modify-write: a missing page is fetched before being modified.
    if (TouchPage(rs, rel.id, page)) {
      ++out.access.pages_hit;
    } else {
      ++out.access.pages_missed;
    }
    uint64_t& word = rs.dirty_bits[page >> 6];
    const uint64_t bit = uint64_t{1} << (page & 63);
    if ((word & bit) == 0) {
      word |= bit;
      const uint32_t slot = dirty_.Alloc();
      dirty_[slot] = DirtyEntry{static_cast<uint32_t>(page), rel.id};
      dirty_.PushBack(slot);
      ++rs.dirty;
      ++dirty_pages_;
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
  // The relation's own directories name every entry it holds, so no LRU
  // walk. Each walk stops once the relation's count reaches zero, so a drop
  // that removes nothing (common under update filtering) walks nothing.
  // Removing a group's last entry recycles the group and clears its entry.
  auto drop_group = [&](uint32_t& group) {
    for (uint32_t i = 0; i < kGroupSlots && group != kNilSlot; ++i) {
      const uint32_t slot = group << kGroupShift | i;
      if (links_[slot].prev != kAbsent) {
        RemoveEntry(slot);
      }
    }
  };
  for (size_t d = 0; d < rs.chunk_group.size() && rs.resident_chunks > 0; ++d) {
    drop_group(rs.chunk_group[d]);
  }
  for (size_t d = 0; d < rs.page_group.size() && rs.resident > 0; ++d) {
    drop_group(rs.page_group[d]);
  }
  for (uint32_t slot = dirty_.head(); slot != kNilSlot && rs.dirty > 0;) {
    const uint32_t next = dirty_.next(slot);
    if (dirty_[slot].rel == rel) {
      EraseDirty(slot);
    }
    slot = next;
  }
}

void BufferPool::Clear() {
  lru_.Clear();
  links_.clear();
  groups_.clear();
  free_group_ = kNilSlot;
  live_page_groups_ = 0;
  dirty_.Clear();
  dirty_pages_ = 0;
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
