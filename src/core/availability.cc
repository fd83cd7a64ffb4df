#include "src/core/availability.h"

#include <algorithm>
#include <unordered_map>

namespace tashkent {

namespace {

bool SubscribesToAll(const TableMask& subscription, const TableMask& tables) {
  for (size_t w = 0; w < TableMask::kWords; ++w) {
    if ((tables.words[w] & ~subscription.words[w]) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

AvailabilityReport CheckAvailability(const std::vector<TableMask>& group_tables,
                                     const std::map<ReplicaId, TableMask>& subscriptions,
                                     int min_copies) {
  AvailabilityReport report;

  // Type availability: a type is runnable on a replica iff that replica
  // subscribes to every table its group references. Types share their group's
  // fate, so the check is per group; the caller maps groups back to types.
  for (size_t g = 0; g < group_tables.size(); ++g) {
    int runnable = 0;
    for (const auto& [replica, subscription] : subscriptions) {
      if (SubscribesToAll(subscription, group_tables[g])) {
        ++runnable;
      }
    }
    if (runnable < min_copies) {
      report.ok = false;
      report.under_replicated_groups.push_back(g);
    }
  }

  // Table availability: every table referenced by any group must be applied on
  // at least min_copies replicas. Iterates tables in RelationId order — the
  // report is a sink.
  TableMask all_tables;
  for (const auto& tables : group_tables) {
    all_tables.OrWith(tables);
  }
  ForEachMaskBit(all_tables, [&](RelationId t) {
    int copies = 0;
    for (const auto& [replica, subscription] : subscriptions) {
      if (subscription.Test(t)) {
        ++copies;
      }
    }
    if (copies < min_copies) {
      report.ok = false;
      report.under_replicated_tables.push_back(t);
    }
  });
  return report;
}

std::map<ReplicaId, TableMask> PlanStandbys(
    const std::vector<std::vector<ReplicaId>>& group_replicas,
    const std::vector<TableMask>& group_tables, int min_copies) {
  std::map<ReplicaId, TableMask> extra;

  // Current subscription volume per replica (tables from its own group plus
  // any standby duties assigned so far) -- used to spread standby load.
  // Lookup-only (never iterated), so an unordered map is contract-safe here.
  std::unordered_map<ReplicaId, size_t> volume;
  std::vector<ReplicaId> all_replicas;
  for (size_t g = 0; g < group_replicas.size(); ++g) {
    for (ReplicaId r : group_replicas[g]) {
      volume[r] += group_tables[g].count();
      all_replicas.push_back(r);
    }
  }
  std::sort(all_replicas.begin(), all_replicas.end());

  for (size_t g = 0; g < group_replicas.size(); ++g) {
    const int deficit = min_copies - static_cast<int>(group_replicas[g].size());
    if (deficit <= 0) {
      continue;
    }
    // Candidates: replicas not already serving this group, least-loaded by
    // subscription volume first; replica id breaks ties deterministically.
    std::vector<ReplicaId> candidates;
    for (ReplicaId r : all_replicas) {
      if (std::find(group_replicas[g].begin(), group_replicas[g].end(), r) ==
          group_replicas[g].end()) {
        candidates.push_back(r);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&volume](ReplicaId a, ReplicaId b) { return volume[a] < volume[b]; });
    for (int i = 0; i < deficit && i < static_cast<int>(candidates.size()); ++i) {
      const ReplicaId r = candidates[static_cast<size_t>(i)];
      extra[r].OrWith(group_tables[g]);
      volume[r] += group_tables[g].count();
    }
  }
  return extra;
}

}  // namespace tashkent
