// OpenHashIndex: open-addressing map from a packed 64-bit key to a 32-bit
// slab slot.
//
// The buffer pool resolves one residency lookup per single-page touch and one
// per dirty-set dedup check; a node-based unordered_map pays a pointer chase
// and (on insert) a node allocation for each. This index stores {key, slot}
// pairs flat in one power-of-two array with linear probing and backward-shift
// deletion, so lookups are one or two cache lines and inserts/erases never
// allocate (outside of growth). There is no separate Insert:
// FindForInsert/InsertAt make find-or-insert one probe, so a caller that
// misses and then inserts never walks the chain twice.
//
// Keys are the packed keys the callers use (e.g. BufferPool's bit-packed
// relation/page keys); a splitmix64 finalizer scrambles them into
// bucket positions. The value is a slot index into the caller's slab vector;
// UINT32_MAX (kNotFound) is reserved as the empty-bucket / not-found marker,
// so slabs are limited to under 2^32 - 1 entries — far beyond any pool here.
#ifndef SRC_COMMON_OPEN_HASH_H_
#define SRC_COMMON_OPEN_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tashkent {

class OpenHashIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  // Slot of `key`, or kNotFound.
  uint32_t Find(uint64_t key) const {
    if (buckets_.empty()) {
      return kNotFound;
    }
    const size_t mask = buckets_.size() - 1;
    size_t i = Hash(key) & mask;
    while (buckets_[i].slot != kNotFound) {
      if (buckets_[i].key == key) {
        return buckets_[i].slot;
      }
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  // Result of FindForInsert: `slot` is the key's slot when present;
  // otherwise it is kNotFound and `bucket` is the empty bucket the key
  // belongs in.
  struct Lookup {
    size_t bucket = 0;
    uint32_t slot = kNotFound;
  };

  // Find-or-insert in one probe: looks `key` up and, when absent, also
  // returns where InsertAt must put it. The table grows *before* probing, so
  // the returned bucket stays valid until the next call that mutates this
  // index (InsertAt, Erase, Clear or another FindForInsert that grows).
  Lookup FindForInsert(uint64_t key) {
    if ((size_ + 1) * 4 > buckets_.size() * 3) {  // max load factor 3/4
      Grow();
    }
    const size_t mask = buckets_.size() - 1;
    size_t i = Hash(key) & mask;
    while (buckets_[i].slot != kNotFound) {
      if (buckets_[i].key == key) {
        return Lookup{i, buckets_[i].slot};
      }
      i = (i + 1) & mask;
    }
    return Lookup{i, kNotFound};
  }

  // Inserts `key -> slot` into the empty bucket a FindForInsert(key) that
  // missed returned. Nothing may have mutated the index in between.
  void InsertAt(const Lookup& at, uint64_t key, uint32_t slot) {
    buckets_[at.bucket] = Bucket{key, slot};
    ++size_;
  }

  // Removes `key`; returns false when absent. Uses backward-shift deletion:
  // later entries of the probe chain slide into the hole, so chains stay
  // gap-free without tombstones and load never degrades.
  bool Erase(uint64_t key) {
    if (buckets_.empty()) {
      return false;
    }
    const size_t mask = buckets_.size() - 1;
    size_t i = Hash(key) & mask;
    while (buckets_[i].slot != kNotFound) {
      if (buckets_[i].key == key) {
        size_t hole = i;
        size_t j = (i + 1) & mask;
        while (buckets_[j].slot != kNotFound) {
          const size_t home = Hash(buckets_[j].key) & mask;
          // Shift j into the hole only if j's probe chain started at or
          // before the hole (cyclic distance test), so it stays reachable.
          if (((j - home) & mask) >= ((j - hole) & mask)) {
            buckets_[hole] = buckets_[j];
            hole = j;
          }
          j = (j + 1) & mask;
        }
        buckets_[hole].slot = kNotFound;
        --size_;
        return true;
      }
      i = (i + 1) & mask;
    }
    return false;
  }

  void Clear() {
    buckets_.clear();
    size_ = 0;
  }

  size_t size() const { return size_; }

 private:
  struct Bucket {
    uint64_t key = 0;
    uint32_t slot = kNotFound;  // kNotFound marks an empty bucket
  };

  static size_t Hash(uint64_t x) {
    // splitmix64 finalizer: full-avalanche mix of the packed key bits.
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  void Grow() {
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(old.empty() ? 16 : old.size() * 2, Bucket{});
    const size_t mask = buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (b.slot == kNotFound) {
        continue;
      }
      size_t i = Hash(b.key) & mask;
      while (buckets_[i].slot != kNotFound) {
        i = (i + 1) & mask;
      }
      buckets_[i] = b;
    }
  }

  std::vector<Bucket> buckets_;
  size_t size_ = 0;
};

}  // namespace tashkent

#endif  // SRC_COMMON_OPEN_HASH_H_
