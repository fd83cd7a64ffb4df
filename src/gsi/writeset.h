// Writesets: the unit of update propagation and certification.
//
// A writeset is "the core information required to reflect the effects of an
// update transaction's changes" [KA00]: the logical rows written (for
// write-write conflict detection under GSI) plus, per table, how many pages
// the change dirties (for replaying the writeset at remote replicas). The
// paper measures ~275-byte average writesets in both benchmarks.
//
// Memory model (docs/ARCHITECTURE.md, "Hot path & performance model"): both
// row lists are SmallVecs sized so every transaction type in the TPC-W and
// RUBiS workloads fits inline — the largest (RUBiS PlaceBid) writes 6 rows
// across 3 tables. Building, moving, certifying, and log-appending a writeset
// therefore performs no heap allocation; an oversized writeset (synthetic
// workloads, tests) spills to a heap buffer that the certifier re-homes into
// its per-cluster arena when the writeset is appended to the log
// (src/gsi/writeset_store.h).
#ifndef SRC_GSI_WRITESET_H_
#define SRC_GSI_WRITESET_H_

#include <cstdint>
#include <utility>

#include "src/common/small_vec.h"
#include "src/common/units.h"
#include "src/engine/txn_type.h"
#include "src/storage/relation.h"
#include "src/storage/table_mask.h"

namespace tashkent {

// Monotonically increasing global commit version assigned by the certifier.
// Version 0 is the initial (empty) database snapshot.
using Version = uint64_t;

using ReplicaId = uint32_t;
inline constexpr ReplicaId kInvalidReplica = UINT32_MAX;

struct WritesetItem {
  RelationId relation = kInvalidRelation;
  uint64_t row_key = 0;

  bool operator==(const WritesetItem& other) const {
    return relation == other.relation && row_key == other.row_key;
  }
};

// Pages dirtied in one table (the per-table half of the writeset, used to
// replay the writeset at remote replicas).
struct TableWrite {
  RelationId relation = kInvalidRelation;
  int pages = 0;

  bool operator==(const TableWrite& other) const {
    return relation == other.relation && pages == other.pages;
  }
};

struct Writeset {
  // Inline capacities cover every transaction type in both workloads (max 6
  // rows / 3 tables); raising them grows sizeof(Writeset) and with it the
  // callback capacities that carry writesets by value.
  using Items = SmallVec<WritesetItem, 8>;
  using TableWrites = SmallVec<TableWrite, 4>;

  // Assigned by the certifier on successful certification; 0 until then.
  Version commit_version = 0;
  // The snapshot the transaction executed against (GSI: possibly older than
  // the latest committed version).
  Version snapshot_version = 0;
  ReplicaId origin = kInvalidReplica;
  TxnTypeId type = kInvalidTxnType;
  // Rows written, for conflict detection.
  Items items;
  // Pages dirtied per table, for remote application.
  TableWrites table_pages;
  // Wire size of the writeset.
  Bytes bytes = 0;

  // True if the writeset touches any relation in `tables`: update
  // filtering's definition of "wanted", probed per table. The filter itself
  // ANDs the log entry's mask instead (src/storage/table_mask.h); the tests
  // keep this as the reference the mask decision must equal.
  bool TouchesAny(const TableMask& tables) const {
    for (const TableWrite& tw : table_pages) {
      if (tables.Test(tw.relation)) {
        return true;
      }
    }
    return false;
  }

  // The writeset's TableMask: one bit per touched relation. Called once per
  // writeset at certifier append (the mask is stored alongside the log
  // entry, not in the writeset — see the inline capacity note above: growing
  // sizeof(Writeset) grows every callback that carries one by value).
  TableMask BuildMask() const {
    TableMask mask;
    for (const TableWrite& tw : table_pages) {
      mask.Set(tw.relation);
    }
    return mask;
  }
};

// A contiguous run of certifier-log versions, [from, to] inclusive;
// from > to means empty. Certification and pull responses describe the
// remote writesets a replica must apply as a range instead of a heap-built
// pointer list — the log is append-only and versions are dense, so the range
// is the whole answer.
struct WritesetRange {
  Version from = 1;
  Version to = 0;

  bool empty() const { return from > to; }
  uint64_t count() const { return empty() ? 0 : to - from + 1; }
};

}  // namespace tashkent

#endif  // SRC_GSI_WRITESET_H_
