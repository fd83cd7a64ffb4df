#include "src/gsi/certification.h"

namespace tashkent {

bool ConflictChecker::Check(const Writeset& ws) const {
  if (size_ == 0) {
    return true;
  }
  for (const auto& item : ws.items) {
    // An empty slot has version 0, which never exceeds a snapshot.
    if (slots_[Probe(item.relation, item.row_key)].version > ws.snapshot_version) {
      return false;  // write-write conflict with an intervening commit
    }
  }
  return true;
}

void ConflictChecker::Record(const Writeset& ws) {
  if (ws.commit_version == 0) {
    return;
  }
  for (const auto& item : ws.items) {
    Insert(item.relation, item.row_key, ws.commit_version);
  }
}

size_t ConflictChecker::Probe(RelationId relation, uint64_t row_key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(relation, row_key);
  while (slots_[i].version != 0 &&
         !(slots_[i].row_key == row_key && slots_[i].relation == relation)) {
    i = (i + 1) & mask;
  }
  return i;
}

void ConflictChecker::Insert(RelationId relation, uint64_t row_key, Version version) {
  if (slots_.empty()) {
    Grow();
  }
  size_t i = Probe(relation, row_key);
  if (slots_[i].version != 0) {
    if (slots_[i].version < version) {
      slots_[i].version = version;
    }
    return;
  }
  // A new row; rewriting a known row never grows the table.
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Grow();
    i = Probe(relation, row_key);
  }
  slots_[i] = Slot{row_key, version, relation};
  ++size_;
}

void ConflictChecker::Grow() {
  std::vector<Slot> old(slots_.empty() ? kMinCapacity : 2 * slots_.size());
  old.swap(slots_);
  size_ = 0;
  for (const Slot& s : old) {
    if (s.version != 0) {
      Insert(s.relation, s.row_key, s.version);
    }
  }
}

void ConflictChecker::EraseAt(size_t i) {
  const size_t mask = slots_.size() - 1;
  size_t hole = i;
  for (size_t j = (i + 1) & mask; slots_[j].version != 0; j = (j + 1) & mask) {
    // Slot j may fill the hole unless its home lies cyclically in (hole, j]:
    // moving it before its home would make it unreachable.
    const size_t home = Home(slots_[j].relation, slots_[j].row_key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void ConflictChecker::PruneBelow(Version floor) {
  // One pass, in place. EraseAt can shift a not-yet-visited row into slot i,
  // so slot i is re-examined until it keeps a row or is empty. A row shifted
  // from the wrapped start of the table into a visited slot was itself
  // visited and kept, so one pass sees every row.
  for (size_t i = 0; i < slots_.size() && size_ > 0; ++i) {
    while (slots_[i].version != 0 && slots_[i].version <= floor) {
      EraseAt(i);
    }
  }
}

}  // namespace tashkent
