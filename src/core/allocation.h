// Replica allocation across transaction groups (Section 2.4).
//
// Pure decision functions, driven by smoothed (CPU, disk) utilizations that
// the balancer aggregates per group:
//   * group load       = MAX(cpu, disk) averaged over the group's replicas —
//     the bottleneck resource determines throughput;
//   * future load      = load * n / (n - 1): linear extrapolation of a group's
//     load if one replica were removed, which naturally protects small groups;
//   * single-step move = take one replica from the group with the lowest
//     future load and give it to the most loaded group, gated by hysteresis
//     (the most loaded group must exceed 1.25x the donor's future load);
//   * fast reallocation = solve the balance equations on total demand
//     (utilization x replicas) to re-target every group at once when the
//     workload shifts dramatically;
//   * merging          = two groups that each under-use a single replica are
//     co-located to reclaim a replica, and split again at the first sign of
//     memory contention (the merged replica becoming the most loaded).
#ifndef SRC_CORE_ALLOCATION_H_
#define SRC_CORE_ALLOCATION_H_

#include <optional>
#include <vector>

namespace tashkent {

// Smoothed load snapshot of one transaction group.
struct GroupLoad {
  int replicas = 0;
  double cpu = 0.0;   // [0,1], group average of smoothed replica CPU
  double disk = 0.0;  // [0,1], group average of smoothed disk channel

  // MAX(cpu, disk): utilization of the bottleneck resource.
  double Load() const { return cpu > disk ? cpu : disk; }

  // Estimated average load if one replica were removed (same total demand
  // spread over n-1 replicas). Groups at one replica return +inf so they are
  // never donors.
  double FutureLoadIfRemoved() const;

  // Total resource demand: utilization x allocated replicas.
  double TotalDemand() const { return Load() * static_cast<double>(replicas); }
};

// A re-allocation happens only if the most loaded group's load is at least
// this factor of the donor's *future* load (Section 2.4, 1.25).
inline constexpr double kHysteresis = 1.25;
// Groups below this utilization with a single replica are merge candidates
// ("drastically under-utilized").
inline constexpr double kMergeThreshold = 0.35;
// Fast reallocation triggers when some group's balance-equation target
// differs from its current allocation by more than one replica.
inline constexpr int kFastTriggerDelta = 1;

// One replica moved from group `from` to group `to`.
struct ReallocationMove {
  size_t from = 0;
  size_t to = 0;
};

// Single-step rebalance: returns the hysteresis-gated move, if any.
std::optional<ReallocationMove> PickRebalanceMove(const std::vector<GroupLoad>& groups);

// Balance-equation targets: n_g proportional to demand_g, conservatively
// rounded (floors first, every group keeps at least one replica, leftovers go
// to the groups with the smallest allocations). The sum equals
// `total_replicas`. Groups with zero demand still receive one replica.
std::vector<int> ComputeFastTargets(const std::vector<GroupLoad>& groups, int total_replicas);

// True when fast reallocation should run instead of a single step: some group
// is more than kFastTriggerDelta away from its balance-equation target and
// the hysteresis gate passes.
bool ShouldFastReallocate(const std::vector<GroupLoad>& groups, int total_replicas);

// Indices of the two least-loaded single-replica groups eligible for merging,
// if both are below the merge threshold.
std::optional<std::pair<size_t, size_t>> PickMergeCandidates(const std::vector<GroupLoad>& groups);

}  // namespace tashkent

#endif  // SRC_CORE_ALLOCATION_H_
