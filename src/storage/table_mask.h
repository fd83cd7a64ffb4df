// TableMask: the update-filtering fast path's bit representation of a table
// set (docs/ARCHITECTURE.md, "Update filtering fast path").
//
// "Does replica r want writeset w" used to be a per-table ordered-set probe
// (Writeset::TouchesAny) run once per writeset per replica on every pull,
// apply pump, and recovery replay. A table's mask bit is its RelationId, so
// the same decision collapses to one word-wise AND over two fixed-width
// masks: the writeset's mask (built once at certifier append) against the
// proxy's cached subscription mask (rebuilt only in SetSubscription).
// Per-chunk OR-masks in the certifier log then let the apply pump skip whole
// 256-entry chunks whose union misses the subscription.
//
// Equivalence contract (the reason this is safe to put on the hot path): bit
// b is set in a mask iff relation b is in the represented set, so
// Intersects(ws mask, subscription mask) == ws.TouchesAny(subscription). The
// mapping needs no state and never changes, so masks built at different
// times always compare. It holds because every RelationId fits a bit:
// Schema::Add refuses a relation past kBits, and Set() throws on a bit past
// the mask rather than writing beyond it.
//
// Masks are probes, not sets: decoded bits come out in RelationId order, but
// reported sinks iterate the schema or a RelationSet instead
// (scripts/lint_determinism.py rule `mask-order`).
#ifndef SRC_STORAGE_TABLE_MASK_H_
#define SRC_STORAGE_TABLE_MASK_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tashkent {

struct TableMask {
  // 256 bits cover every schema in the tree (TPC-W has 18 relations, RUBiS
  // 17); Schema::Add enforces the bound.
  static constexpr size_t kWords = 4;
  static constexpr uint32_t kBits = static_cast<uint32_t>(kWords) * 64;

  uint64_t words[kWords] = {0, 0, 0, 0};

  // Throws std::out_of_range for a bit >= kBits.
  void Set(uint32_t bit) {
    if (bit >= kBits) {
      throw std::out_of_range("TableMask: relation id " + std::to_string(bit) +
                              " has no bit (limit " + std::to_string(kBits) + ")");
    }
    words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  bool Test(uint32_t bit) const {
    return (words[bit >> 6] >> (bit & 63)) & 1;
  }
  bool any() const {
    uint64_t acc = 0;
    for (size_t w = 0; w < kWords; ++w) {
      acc |= words[w];
    }
    return acc != 0;
  }
  void OrWith(const TableMask& other) {
    for (size_t w = 0; w < kWords; ++w) {
      words[w] |= other.words[w];
    }
  }
  void Reset() { *this = TableMask{}; }

  bool operator==(const TableMask& other) const {
    for (size_t w = 0; w < kWords; ++w) {
      if (words[w] != other.words[w]) {
        return false;
      }
    }
    return true;
  }
  bool operator!=(const TableMask& other) const { return !(*this == other); }
};

// One shared AND: true iff some table sits in both sets.
inline bool Intersects(const TableMask& a, const TableMask& b) {
  uint64_t acc = 0;
  for (size_t w = 0; w < TableMask::kWords; ++w) {
    acc |= a.words[w] & b.words[w];
  }
  return acc != 0;
}

// Invokes fn(bit) for every set bit in ascending bit order, which is
// RelationId order. Debug/test helper only: reported sinks iterate the schema
// or a RelationSet, never decoded bits (lint rule `mask-order` flags every
// call site).
template <typename Fn>
// lint: allow(mask-order) definition site; call sites carry their own pragmas
void ForEachMaskBit(const TableMask& mask, Fn&& fn) {
  for (size_t w = 0; w < TableMask::kWords; ++w) {
    uint64_t bits = mask.words[w];
    while (bits != 0) {
      const uint32_t bit = static_cast<uint32_t>(w) * 64 +
                           static_cast<uint32_t>(__builtin_ctzll(bits));
      fn(bit);
      bits &= bits - 1;
    }
  }
}

}  // namespace tashkent

#endif  // SRC_STORAGE_TABLE_MASK_H_
