// Write-write conflict detection for Generalized Snapshot Isolation.
//
// Under GSI [EPZ05] a transaction reads from a (possibly old) snapshot V and
// may commit only if no transaction that committed after V wrote a row it also
// writes. The checker keeps, per written row, the latest committing version,
// so a certification test is one hash probe per writeset item — this is the
// "comparing table and field identifiers for matches against writesets from
// recently committed update transactions" of Section 4.1.
//
// "Recently" is what keeps the index bounded. Let P be a version that no
// certification still to be checked has a snapshot below (the GSI-safe
// point). A row whose last write is at or below P can never make such a
// certification abort — its write is already inside every remaining snapshot
// — so PruneBelow(P) forgets it without changing any verdict. The cluster
// computes P on every prune tick (docs/ARCHITECTURE.md, "Bounded certifier
// state"); P is NOT the certifier log's prune floor, which only tracks
// applied versions and may run ahead of a parked certification's snapshot.
//
// Layout: a flat open-addressing table — power-of-two capacity, linear
// probing, 24-byte slots holding (relation, row_key, version), version 0
// marking an empty slot (commit versions start at 1). Load stays at or below
// three quarters. Pruning erases in place with backward-shift deletion, so
// the table never holds tombstones and only reallocates when it grows: a
// table that has reached its working size certifies fresh rows without
// allocating.
#ifndef SRC_GSI_CERTIFICATION_H_
#define SRC_GSI_CERTIFICATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/gsi/writeset.h"

namespace tashkent {

class ConflictChecker {
 public:
  // Tests `ws` (which read snapshot ws.snapshot_version) against committed
  // writes. Returns true when certification succeeds; the caller then assigns
  // the commit version and calls Record().
  bool Check(const Writeset& ws) const;

  // Records the rows of a successfully certified writeset at its commit
  // version. A commit version of 0 records nothing: a write at version 0 is
  // inside every snapshot and can never conflict.
  void Record(const Writeset& ws);

  // Forgets rows whose last write is at or below `floor`. Precondition: every
  // certification that will still be checked has a snapshot >= floor (the
  // GSI-safe point above). Pruning at a floor past a live snapshot hides a
  // real write-write conflict.
  void PruneBelow(Version floor);

  size_t tracked_rows() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t row_key = 0;
    Version version = 0;  // 0 = empty
    RelationId relation = kInvalidRelation;
  };
  static_assert(sizeof(Slot) == 24, "conflict-index slots are 24 bytes");

  static constexpr size_t kMinCapacity = 16;

  size_t Home(RelationId relation, uint64_t row_key) const {
    // SplitMix-style mix of relation and row key.
    uint64_t x = (static_cast<uint64_t>(relation) << 40) ^ row_key;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31)) & (slots_.size() - 1);
  }
  // The slot holding (relation, row_key), or the empty slot ending its probe
  // run. Requires a non-empty table.
  size_t Probe(RelationId relation, uint64_t row_key) const;
  void Insert(RelationId relation, uint64_t row_key, Version version);
  // Doubles the capacity (or allocates the first table) and rehashes.
  void Grow();
  // Empties slot `i` and shifts the rest of its probe run back, so every
  // remaining row stays reachable from its home slot without tombstones.
  void EraseAt(size_t i);

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace tashkent

#endif  // SRC_GSI_CERTIFICATION_H_
