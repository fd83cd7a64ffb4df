// TableMask: the one table-set type. Group tables, replica subscriptions,
// standby plans and every certifier-log entry's touched tables are all
// TableMasks (docs/ARCHITECTURE.md, "Update filtering fast path").
//
// A table's bit is its RelationId, so "does replica r want writeset w" is one
// word-wise AND over two fixed-width masks: the writeset's mask (built once at
// certifier append) against the proxy's subscription. Per-chunk OR-masks in
// the certifier log then let the apply pump skip whole 256-entry chunks whose
// union misses the subscription.
//
// Equivalence contract: bit b is set iff relation b is in the set, so
// Intersects(ws mask, subscription) == ws.TouchesAny(subscription), the
// per-table reference. The mapping needs no state and never changes, so masks
// built at different times always compare, and ForEachMaskBit visits members
// in ascending RelationId order, a defined order for every decision and report
// built from a set. It holds because every RelationId fits a bit: Schema::Add
// refuses a relation past kBits, and Set() throws on a bit past the mask
// rather than writing beyond it.
#ifndef SRC_STORAGE_TABLE_MASK_H_
#define SRC_STORAGE_TABLE_MASK_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace tashkent {

struct TableMask {
  // 256 bits cover every schema in the tree (TPC-W has 18 relations, RUBiS
  // 17); Schema::Add enforces the bound.
  static constexpr size_t kWords = 4;
  static constexpr uint32_t kBits = static_cast<uint32_t>(kWords) * 64;

  uint64_t words[kWords] = {0, 0, 0, 0};

  TableMask() = default;
  // Throws std::out_of_range for a bit >= kBits.
  TableMask(std::initializer_list<uint32_t> bits) {
    for (uint32_t bit : bits) {
      Set(bit);
    }
  }

  // Throws std::out_of_range for a bit >= kBits.
  void Set(uint32_t bit) {
    if (bit >= kBits) {
      throw std::out_of_range("TableMask: relation id " + std::to_string(bit) +
                              " has no bit (limit " + std::to_string(kBits) + ")");
    }
    words[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  // False for a bit >= kBits: no such relation is in any set.
  bool Test(uint32_t bit) const {
    return bit < kBits && ((words[bit >> 6] >> (bit & 63)) & 1) != 0;
  }
  bool any() const {
    uint64_t acc = 0;
    for (size_t w = 0; w < kWords; ++w) {
      acc |= words[w];
    }
    return acc != 0;
  }
  // Number of members.
  size_t count() const {
    size_t n = 0;
    for (size_t w = 0; w < kWords; ++w) {
      n += static_cast<size_t>(__builtin_popcountll(words[w]));
    }
    return n;
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

// The set's iteration: invokes fn(bit) for every member in ascending bit
// order, which is RelationId order.
template <typename Fn>
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
