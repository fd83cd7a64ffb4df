// RelationSet: a deterministic, ordered set of RelationId.
//
// Subscriptions, per-group table sets, and standby plans are sets of
// relations whose iteration order can leak into user-visible artifacts (the
// balancer's cache-drop decisions, recovery replay, report JSON). The
// determinism contract (docs/ARCHITECTURE.md, "Determinism contract") bans
// unordered containers on those paths, because hash-table iteration order
// depends on the allocator and standard-library version, not just the seed.
//
// RelationSet stores a sorted unique vector: iteration is always
// ascending-id and bitwise reproducible, membership is a binary search (no
// hashing, no nodes), and at subscription sizes (tens of relations) it is at
// least as cheap as the unordered_set it replaced. The API is the subset of
// std::set that the subscription paths use — including find()/end() so
// Writeset::TouchesAny accepts either.
#ifndef SRC_STORAGE_RELATION_SET_H_
#define SRC_STORAGE_RELATION_SET_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "src/storage/relation.h"
#include "src/storage/table_mask.h"

namespace tashkent {

class RelationSet {
 public:
  using const_iterator = std::vector<RelationId>::const_iterator;

  RelationSet() = default;
  RelationSet(std::initializer_list<RelationId> ids) {
    insert(ids.begin(), ids.end());
  }

  void insert(RelationId id) {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) {
      ids_.insert(it, id);
    }
  }

  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) {
      insert(*first);
    }
  }

  const_iterator find(RelationId id) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    return (it != ids_.end() && *it == id) ? it : ids_.end();
  }

  size_t count(RelationId id) const { return find(id) == end() ? 0 : 1; }
  bool contains(RelationId id) const { return count(id) != 0; }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }

  bool operator==(const RelationSet& other) const { return ids_ == other.ids_; }
  bool operator!=(const RelationSet& other) const { return !(*this == other); }

 private:
  std::vector<RelationId> ids_;  // sorted, unique
};

// The set's TableMask: bit i is set iff relation i is a member
// (update-filtering fast path; see src/storage/table_mask.h).
inline TableMask BuildMask(const RelationSet& set) {
  TableMask mask;
  for (RelationId id : set) {
    mask.Set(id);
  }
  return mask;
}

}  // namespace tashkent

#endif  // SRC_STORAGE_RELATION_SET_H_
