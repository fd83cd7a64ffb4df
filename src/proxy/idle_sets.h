// Idle replica sets: which proxies have no outstanding work, and which have
// exactly one outstanding transaction.
//
// MALB's spill valve asks "which is the lowest-index available replica with
// the least outstanding work, if that is 0 or 1?" on every route of a
// backlogged group. Reading every proxy's count answers it in O(N); these two
// bitsets over proxy indices answer it from a few words. Each replica's
// Gatekeeper keeps its own bits current (it alone changes `outstanding()`),
// and it writes a word only when its count crosses 0, 1 or 2. The sets never
// grow on that path: the balancer sizes them when it attaches its proxies.
//
// Availability is not tracked here. A down replica keeps its bits (its
// in-flight work still drains through Release), and the lookup skips it.
#ifndef SRC_PROXY_IDLE_SETS_H_
#define SRC_PROXY_IDLE_SETS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tashkent {

class IdleSets {
 public:
  static constexpr size_t kNone = SIZE_MAX;

  IdleSets() = default;
  // Gatekeepers hold the set's address.
  IdleSets(const IdleSets&) = delete;
  IdleSets& operator=(const IdleSets&) = delete;

  // Covers proxy indices [0, n). Attach time only.
  void Resize(size_t n) {
    const size_t words = (n + 63) / 64;
    zero_.resize(words, 0);
    one_.resize(words, 0);
  }

  // Sets `index`'s bits from its full outstanding count (attach time).
  void Assign(size_t index, size_t outstanding) {
    Put(zero_, index, outstanding == 0);
    Put(one_, index, outstanding == 1);
  }

  // `index`'s count just rose by one, to `now`.
  void Raised(size_t index, size_t now) {
    if (now == 1) {
      Put(zero_, index, false);
      Put(one_, index, true);
    } else if (now == 2) {
      Put(one_, index, false);
    }
  }

  // `index`'s count just fell by one, to `now`.
  void Lowered(size_t index, size_t now) {
    if (now == 1) {
      Put(one_, index, true);
    } else if (now == 0) {
      Put(one_, index, false);
      Put(zero_, index, true);
    }
  }

  bool zero(size_t index) const { return Get(zero_, index); }
  bool one(size_t index) const { return Get(one_, index); }

  // The lowest index whose count is `load` (0 or 1) and for which
  // `usable(index)` holds; kNone when there is none.
  template <typename Usable>
  size_t Lowest(size_t load, Usable usable) const {
    const std::vector<uint64_t>& set = load == 0 ? zero_ : one_;
    for (size_t w = 0; w < set.size(); ++w) {
      for (uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
        const size_t index = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        if (usable(index)) {
          return index;
        }
      }
    }
    return kNone;
  }

  // A proxy reports to one set at a time. Re-attaching one of this set's
  // proxies elsewhere leaves this set stale for good.
  void Supersede() { superseded_ = true; }
  bool superseded() const { return superseded_; }

 private:
  static void Put(std::vector<uint64_t>& set, size_t index, bool on) {
    const uint64_t bit = uint64_t{1} << (index % 64);
    uint64_t& word = set[index / 64];
    word = on ? (word | bit) : (word & ~bit);
  }
  static bool Get(const std::vector<uint64_t>& set, size_t index) {
    return index / 64 < set.size() && ((set[index / 64] >> (index % 64)) & 1) != 0;
  }

  std::vector<uint64_t> zero_;
  std::vector<uint64_t> one_;
  bool superseded_ = false;
};

}  // namespace tashkent

#endif  // SRC_PROXY_IDLE_SETS_H_
