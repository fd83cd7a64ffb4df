// Availability constraints under update filtering (Section 3).
//
// With update filtering a replica stops applying writesets for tables its
// transaction group does not use, so those tables go stale there. To keep a
// target redundancy level the balancer must guarantee:
//   1. transaction-type availability — every type can run on at least
//      `min_copies` replicas with up-to-date state, and
//   2. table availability — at least `min_copies` replicas keep every table
//      current (implied by 1, verified explicitly here).
// CheckAvailability() validates a (group -> tables, replica -> subscribed
// tables) assignment; PlanStandbys() picks extra subscriber replicas for
// groups whose serving replica count is below the target.
#ifndef SRC_CORE_AVAILABILITY_H_
#define SRC_CORE_AVAILABILITY_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/bin_packing.h"
#include "src/gsi/writeset.h"
#include "src/storage/table_mask.h"

namespace tashkent {

struct AvailabilityReport {
  bool ok = true;
  // Indices of groups whose types are runnable on fewer than min_copies
  // subscribed replicas (the caller owns the group -> type mapping).
  std::vector<size_t> under_replicated_groups;
  // Tables kept current on fewer than min_copies replicas.
  std::vector<RelationId> under_replicated_tables;
};

// `group_tables[g]` lists the tables group g's types reference;
// `subscriptions[r]` is the table set replica r applies updates for. The
// replica map is ordered and table sets iterate in RelationId order: these
// sets flow into subscriptions and reports, so their iteration order is part
// of the determinism contract.
AvailabilityReport CheckAvailability(const std::vector<TableMask>& group_tables,
                                     const std::map<ReplicaId, TableMask>& subscriptions,
                                     int min_copies);

// For every group with fewer than `min_copies` serving replicas, selects
// standby replicas (from other groups, least-subscribed first) that must also
// subscribe to the group's tables. Returns replica -> extra tables to add.
std::map<ReplicaId, TableMask> PlanStandbys(
    const std::vector<std::vector<ReplicaId>>& group_replicas,
    const std::vector<TableMask>& group_tables, int min_copies);

}  // namespace tashkent

#endif  // SRC_CORE_AVAILABILITY_H_
