// Memory-aware load balancing: the MALB-S / MALB-SC / MALB-SCAP dispatcher.
//
// On Start() the balancer builds working sets from plan + catalog facts
// (src/core/working_set.h), packs them into transaction groups
// (src/core/bin_packing.h) against each replica's memory available after the
// 70 MB system reservation (replicas may differ in size — heterogeneous bin
// packing), and spreads replicas over the groups they can host. A periodic
// allocation tick then:
//   1. refreshes per-group loads from the replica monitors (smoothed CPU and
//      disk utilizations, MAX as the bottleneck measure);
//   2. if a *merged* group has become the most loaded, splits it first —
//      memory contention from merging must be undone before stealing replicas
//      (Section 2.4, "Merging Low Utilization Transaction Groups");
//   3. otherwise runs fast reallocation (balance equations) when the workload
//      shifted dramatically, or a single hysteresis-gated move;
//   4. merges two drastically under-utilized single-replica groups to reclaim
//      a replica.
// A slower periodic re-grouping tick re-reads catalog sizes and re-packs when
// table growth changes the packing.
//
// Update filtering (Section 3): once the allocation has been stable for a few
// ticks, dynamics freeze and each proxy receives the table subscription for
// its group(s), plus standby subscriptions so every type and table keeps
// kMinCopies up-to-date replicas.
//
// Engineering note (extension over the paper, see DESIGN.md): utilizations
// saturate at 100% under closed-loop overload, hiding demand differences
// between two saturated groups. The balancer therefore adds a queue-pressure
// term (outstanding transactions beyond the gatekeeper limit, normalized) to
// the group load before comparing. fig3's ablation cells toggle this off.
#ifndef SRC_BALANCER_MALB_H_
#define SRC_BALANCER_MALB_H_

#include <optional>
#include <vector>

#include "src/balancer/balancer.h"
#include "src/core/allocation.h"
#include "src/core/availability.h"
#include "src/core/bin_packing.h"
#include "src/core/working_set.h"
#include "src/proxy/idle_sets.h"

namespace tashkent {

// How update filtering interacts with dynamic replica allocation.
enum class FilteringMode {
  // Section 4.2.3: dynamic allocation is disabled once filtering engages; the
  // allocation freezes at the stable configuration.
  kFreezeWhenStable,
  // The paper's stated future work: allocation keeps adapting and the proxy
  // subscriptions are rebuilt after every move. A replica joining a group
  // subscribes to its tables and catches up with a cold cache.
  kDynamic,
};

// Availability target under update filtering: every type and table keeps
// this many up-to-date replicas.
inline constexpr int kMinCopies = 2;

struct MalbConfig {
  EstimationMethod method = EstimationMethod::kSizeContent;
  bool enable_merging = true;
  bool enable_fast_realloc = true;
  // Update filtering (Section 3).
  bool update_filtering = false;
  FilteringMode filtering_mode = FilteringMode::kDynamic;
  int stable_ticks_for_filtering = 3;
  // Weight of the queue-pressure extension; 0 disables it.
  double queue_pressure_weight = 1.0;
  // Spill safety valve: when every replica of a group is severely backlogged
  // (outstanding >= spill_factor x the gatekeeper limit) and an idle replica
  // exists elsewhere, dispatch there instead. This keeps MALB "at least as
  // good as LeastConnections" (Section 5.6) when memory is plentiful and
  // partitioning restricts parallelism; 0 disables spilling.
  double spill_factor = 2.0;
};

class MalbBalancer : public LoadBalancer {
 public:
  MalbBalancer(BalancerContext context, MalbConfig config = {});
  // Detaches the proxies that still report to this balancer's idle sets.
  ~MalbBalancer() override;

  void Start() override;
  // Throws std::logic_error once another balancer has re-attached one of
  // this balancer's proxies (its idle sets are stale).
  size_t Route(const TxnType& type) override;
  std::string name() const override;

  // A runtime group: one or more packed groups sharing a replica allocation
  // (more than one only after merging).
  struct RuntimeGroup {
    std::vector<size_t> packed;      // indices into packing().groups
    std::vector<size_t> replicas;    // proxy indices serving this group
    bool merged() const { return packed.size() > 1; }
  };

  const PackingResult& packing() const { return packing_; }
  const std::vector<RuntimeGroup>& runtime_groups() const { return groups_; }
  bool filtering_installed() const { return filtering_installed_; }

  // Per-replica usable memory in pages (memory - reserved), by proxy index.
  // Heterogeneous clusters have differing entries; allocation only places a
  // replica in a group it can host (see Fits).
  const std::vector<Pages>& capacity_pages() const { return capacity_pages_; }

  // True when replica `replica` can host runtime group `group`: the largest
  // packed estimate fits the replica's capacity. Groups exceeding EVERY
  // replica's capacity (true overflow types) are feasible everywhere — they
  // are hosted at a loss wherever they land, as in the paper.
  bool Fits(size_t replica, const RuntimeGroup& group) const;

  // Attaches the new proxy to the idle sets, then the default append and
  // topology change.
  void OnReplicaAdded(Proxy* proxy) override;
  // Capacities or replica count changed (AddReplica / ResizeMemory): re-read
  // per-replica memory, re-validate it, and re-pack if the packing changed.
  void OnTopologyChange() override;

  // Group sizes/types for reporting (Tables 2 and 4).
  std::vector<std::vector<TxnTypeId>> GroupTypeIds() const;
  std::vector<int> GroupReplicaCounts() const;

  // Current load snapshot, exposed for tests and benches.
  std::vector<GroupLoad> SnapshotLoads() const;

  // Forces one allocation tick immediately (tests).
  void TickForTest() { AllocationTick(); }

  // The spill valve's view of replica loads (tests compare it with every
  // proxy's outstanding()).
  const IdleSets& idle_sets() const { return idle_; }

  // Permanently freezes the current allocation (Figure 6 static baseline).
  // A truly static configuration also forgoes the spill valve — no dynamic
  // reaction of any kind. Called before Start(), it also schedules no ticks.
  void Freeze() {
    frozen_ = true;
    config_.spill_factor = 0.0;
  }

  // Rebalance-driven replica placements (group moves, fast-realloc pushes,
  // split steals, merge re-homes) since the last window opened
  // (ResetMoveCount). Excludes churn-driven adoption (PruneAndAdoptReplicas)
  // — that is availability work, not load rebalancing. The skew campaign
  // reports it as its rebalance-cost column.
  uint64_t replica_moves() const { return replica_moves_; }
  void ResetMoveCount() { replica_moves_ = 0; }

 private:
  void RefreshCapacities();
  Pages GroupNeedPages(const RuntimeGroup& group) const;
  // The feasible group with the fewest replicas (unassigned-replica adoption
  // and infeasible-move fallbacks); falls back to the smallest-need group
  // when the replica fits nothing.
  size_t ThinnestFeasibleGroup(size_t replica) const;
  void BuildGroups();
  // Adopts a packing: its working sets, signature, one runtime group per
  // packed group, and the type map. Allocation is the caller's.
  void InstallPacking(std::vector<TypeWorkingSet> working_sets, PackingResult packing);
  void InitialAllocation();
  void AllocationTick();
  void RegroupTick();
  // Shared by RegroupTick and OnTopologyChange: re-derive working sets and
  // packing; on a signature change, rebuild groups + allocation and return
  // true.
  bool RepackIfChanged();
  void RebuildTypeMap();
  void MoveReplica(size_t from_group, size_t to_group);
  bool PruneAndAdoptReplicas();
  // Removes and returns the donor's least-busy replica that fits `target`
  // (nullptr = no feasibility constraint); SIZE_MAX when none fits.
  size_t PickDonorReplica(RuntimeGroup& donor, const RuntimeGroup* target);
  void ApplyFastTargets(const std::vector<int>& targets);
  bool TrySplitMostLoaded(const std::vector<GroupLoad>& loads);
  bool TryMerge(const std::vector<GroupLoad>& loads);
  void MaybeInstallFiltering(bool moved, const std::vector<GroupLoad>& loads);
  void InstallSubscriptions();
  TableMask GroupTables(const RuntimeGroup& group) const;
  uint64_t PackingSignature(const PackingResult& packing) const;

  MalbConfig config_;
  // Replicas with 0 and with 1 outstanding transaction, kept current by
  // their gatekeepers; the spill valve reads them instead of every proxy.
  IdleSets idle_;
  std::vector<Pages> capacity_pages_;  // usable pages per proxy index
  std::vector<TypeWorkingSet> working_sets_;
  PackingResult packing_;
  std::vector<RuntimeGroup> groups_;
  std::vector<size_t> group_of_type_;  // TxnTypeId -> runtime group index
  int stable_ticks_ = 0;
  bool frozen_ = false;  // Freeze(): allocation never changes again
  bool filtering_installed_ = false;
  uint64_t packing_signature_ = 0;
  uint64_t replica_moves_ = 0;
};

}  // namespace tashkent

#endif  // SRC_BALANCER_MALB_H_
