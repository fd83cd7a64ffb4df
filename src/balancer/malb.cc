#include "src/balancer/malb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tashkent {
namespace {

// Allocation tick period; the paper's monitors feed continuously, decisions
// happen at this cadence.
constexpr SimDuration kAllocationPeriod = Seconds(5.0);
// Catalog re-read / re-pack period.
constexpr SimDuration kRegroupPeriod = Seconds(60.0);

}  // namespace

MalbBalancer::MalbBalancer(BalancerContext context, MalbConfig config)
    : LoadBalancer(std::move(context)), config_(config) {
  if (context_.proxies.empty()) {
    throw std::invalid_argument("MALB requires at least one replica");
  }
  RefreshCapacities();
  idle_.Resize(context_.proxies.size());
  for (size_t r = 0; r < context_.proxies.size(); ++r) {
    context_.proxies[r]->AttachIdleSets(&idle_, r);
  }
}

MalbBalancer::~MalbBalancer() {
  for (Proxy* proxy : context_.proxies) {
    proxy->DetachIdleSets(&idle_);
  }
}

void MalbBalancer::OnReplicaAdded(Proxy* proxy) {
  const size_t index = context_.proxies.size();
  idle_.Resize(index + 1);
  proxy->AttachIdleSets(&idle_, index);
  LoadBalancer::OnReplicaAdded(proxy);
}

void MalbBalancer::RefreshCapacities() {
  // Per-replica capacity, not proxies.front()'s: replicas may be resized at
  // runtime or configured heterogeneously, and silently packing every bin to
  // replica 0's size would mis-place groups on smaller machines.
  capacity_pages_.clear();
  capacity_pages_.reserve(context_.proxies.size());
  for (const Proxy* proxy : context_.proxies) {
    const ReplicaConfig& rc = proxy->replica().config();
    if (rc.memory <= rc.reserved) {
      throw std::invalid_argument(
          "MALB: replica " + std::to_string(proxy->replica_id()) + " has memory " +
          std::to_string(rc.memory / kMiB) + " MB <= reserved " +
          std::to_string(rc.reserved / kMiB) +
          " MB; no pages would remain for packing");
    }
    capacity_pages_.push_back(BytesToPages(rc.memory - rc.reserved));
  }
}

Pages MalbBalancer::GroupNeedPages(const RuntimeGroup& group) const {
  // A replica hosting a merged group accepts cache contention by design
  // (splitting undoes it), so feasibility asks for the largest single packed
  // group, not the merged sum.
  Pages need = 0;
  for (size_t p : group.packed) {
    need = std::max(need, packing_.groups[p].estimate_pages);
  }
  return need;
}

bool MalbBalancer::Fits(size_t replica, const RuntimeGroup& group) const {
  const Pages need = GroupNeedPages(group);
  if (need <= capacity_pages_[replica]) {
    return true;
  }
  // A group NO replica can host (a true overflow type) is hosted at a loss
  // wherever it lands, so it is "feasible" everywhere. A group that merely
  // exceeds THIS replica but fits a larger one must wait for a big replica —
  // the packer's per-bin overflow flag is not consulted here, because a
  // group seeded into a small bin can still have hosts among the large
  // replicas.
  const Pages max_capacity =
      *std::max_element(capacity_pages_.begin(), capacity_pages_.end());
  return need > max_capacity;
}

size_t MalbBalancer::ThinnestFeasibleGroup(size_t replica) const {
  size_t thinnest = groups_.size();
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (!Fits(replica, groups_[g])) {
      continue;
    }
    if (thinnest == groups_.size() ||
        groups_[g].replicas.size() < groups_[thinnest].replicas.size()) {
      thinnest = g;
    }
  }
  if (thinnest != groups_.size()) {
    return thinnest;
  }
  // The replica fits nothing (it is smaller than every group's working set):
  // park it on the group that needs the least memory rather than idling it.
  size_t smallest = 0;
  for (size_t g = 1; g < groups_.size(); ++g) {
    if (GroupNeedPages(groups_[g]) < GroupNeedPages(groups_[smallest])) {
      smallest = g;
    }
  }
  return smallest;
}

void MalbBalancer::OnTopologyChange() {
  RefreshCapacities();
  if (groups_.empty() || frozen_ || filtering_installed_) {
    // Not started yet, pinned (Figure 6 baseline), or filtering froze the
    // grouping; membership fixes still happen on the next allocation tick.
    return;
  }
  // Re-pack against the new capacity vector; same signature-gated rebuild as
  // the periodic regroup. When the packing is unchanged, just re-home
  // replicas that no longer fit their group (or are new).
  if (!RepackIfChanged()) {
    PruneAndAdoptReplicas();
  }
}

bool MalbBalancer::RepackIfChanged() {
  // Re-read catalog sizes and capacities; if the packing changed (table
  // growth or a capacity change moved a type across a bin boundary), rebuild
  // groups and start over with an even allocation.
  std::vector<TypeWorkingSet> fresh = BuildWorkingSets(*context_.registry, *context_.schema);
  PackingResult repacked = PackTransactionGroups(fresh, capacity_pages_, config_.method);
  if (PackingSignature(repacked) == packing_signature_) {
    return false;
  }
  InstallPacking(std::move(fresh), std::move(repacked));
  InitialAllocation();
  stable_ticks_ = 0;
  return true;
}

std::string MalbBalancer::name() const {
  std::string n = EstimationMethodName(config_.method);
  if (config_.update_filtering) {
    n += "+UpdateFiltering";
  }
  return n;
}

void MalbBalancer::Start() {
  BuildGroups();
  InitialAllocation();
  if (!frozen_) {
    context_.sim->SchedulePeriodic(context_.sim->Now() + kAllocationPeriod, kAllocationPeriod,
                                   [this]() { AllocationTick(); });
    context_.sim->SchedulePeriodic(context_.sim->Now() + kRegroupPeriod, kRegroupPeriod,
                                   [this]() { RegroupTick(); });
  }
}

void MalbBalancer::BuildGroups() {
  std::vector<TypeWorkingSet> sets = BuildWorkingSets(*context_.registry, *context_.schema);
  PackingResult packing = PackTransactionGroups(sets, capacity_pages_, config_.method);
  InstallPacking(std::move(sets), std::move(packing));
}

void MalbBalancer::InstallPacking(std::vector<TypeWorkingSet> working_sets,
                                  PackingResult packing) {
  working_sets_ = std::move(working_sets);
  packing_ = std::move(packing);
  packing_signature_ = PackingSignature(packing_);
  groups_.clear();
  groups_.resize(packing_.groups.size());
  for (size_t g = 0; g < packing_.groups.size(); ++g) {
    groups_[g].packed = {g};
  }
  RebuildTypeMap();
}

void MalbBalancer::RebuildTypeMap() {
  group_of_type_.assign(context_.registry->size(), 0);
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t p : groups_[g].packed) {
      for (TxnTypeId t : packing_.groups[p].types) {
        group_of_type_[t] = g;
      }
    }
  }
}

void MalbBalancer::InitialAllocation() {
  // No load information yet: spread replicas evenly, larger estimates first.
  std::vector<size_t> order(groups_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return packing_.groups[groups_[a].packed[0]].estimate_pages >
           packing_.groups[groups_[b].packed[0]].estimate_pages;
  });
  for (auto& g : groups_) {
    g.replicas.clear();
  }
  const size_t n_replicas = context_.proxies.size();
  if (groups_.empty()) {
    return;
  }
  // Replicas visit in capacity-descending order (stable: index breaks ties),
  // each taking the next group in the round-robin it can actually host —
  // aligning big replicas with big groups. With homogeneous capacities every
  // group fits every replica and this is exactly the plain round-robin.
  std::vector<size_t> replica_order(n_replicas);
  for (size_t i = 0; i < n_replicas; ++i) {
    replica_order[i] = i;
  }
  std::stable_sort(replica_order.begin(), replica_order.end(),
                   [this](size_t a, size_t b) {
                     return capacity_pages_[a] > capacity_pages_[b];
                   });
  size_t next = 0;
  for (size_t r : replica_order) {
    bool placed = false;
    for (size_t k = 0; k < order.size(); ++k) {
      const size_t g = order[(next + k) % order.size()];
      if (Fits(r, groups_[g])) {
        groups_[g].replicas.push_back(r);
        next = (next + k + 1) % order.size();
        placed = true;
        break;
      }
    }
    if (!placed) {
      groups_[ThinnestFeasibleGroup(r)].replicas.push_back(r);
    }
  }
}

size_t MalbBalancer::Route(const TxnType& type) {
  if (idle_.superseded()) {
    throw std::logic_error(
        "MALB: another balancer re-attached this balancer's proxies; its idle sets are stale");
  }
  const RuntimeGroup& group = groups_[group_of_type_[type.id]];
  const std::vector<size_t>& candidates =
      group.replicas.empty() ? groups_.front().replicas : group.replicas;
  if (candidates.empty()) {
    return 0;
  }
  size_t best = candidates[0];
  size_t best_out = SIZE_MAX;
  for (size_t candidate : candidates) {
    if (!context_.proxies[candidate]->available()) {
      continue;
    }
    const size_t out = context_.proxies[candidate]->outstanding();
    if (out < best_out) {
      best = candidate;
      best_out = out;
    }
  }
  if (best_out == SIZE_MAX) {
    // The whole group crashed: fall back to any available replica.
    for (size_t r = 0; r < context_.proxies.size(); ++r) {
      if (context_.proxies[r]->available()) {
        return r;
      }
    }
    return best;
  }
  // Spill valve: if the whole group is drowning and someone else is idle,
  // sacrifice locality for parallelism rather than queueing behind the group.
  // Never spill once filtering is active: other replicas may hold stale
  // copies of this type's tables.
  if (config_.spill_factor > 0 && !filtering_installed_) {
    const double limit =
        config_.spill_factor * static_cast<double>(context_.proxies[best]->max_in_flight());
    if (static_cast<double>(best_out) >= limit) {
      // The lowest-index available replica with the fewest outstanding
      // transactions, when that is 0 or 1 and strictly fewer than best_out.
      const auto available = [this](size_t r) { return context_.proxies[r]->available(); };
      if (best_out > 0) {
        const size_t idle = idle_.Lowest(0, available);
        if (idle != IdleSets::kNone) {
          return idle;
        }
      }
      if (best_out > 1) {
        const size_t idle = idle_.Lowest(1, available);
        if (idle != IdleSets::kNone) {
          return idle;
        }
      }
    }
  }
  return best;
}

std::vector<GroupLoad> MalbBalancer::SnapshotLoads() const {
  std::vector<GroupLoad> loads(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    GroupLoad& load = loads[g];
    load.replicas = static_cast<int>(groups_[g].replicas.size());
    if (groups_[g].replicas.empty()) {
      continue;
    }
    double cpu = 0.0;
    double disk = 0.0;
    double pressure = 0.0;
    for (size_t r : groups_[g].replicas) {
      const Proxy* proxy = context_.proxies[r];
      cpu += proxy->replica().smoothed_cpu();
      disk += proxy->replica().smoothed_disk();
      const double mpl = static_cast<double>(proxy->max_in_flight());
      const double backlog = static_cast<double>(proxy->outstanding()) - mpl;
      if (backlog > 0) {
        pressure += backlog / mpl;
      }
    }
    const double n = static_cast<double>(groups_[g].replicas.size());
    load.cpu = cpu / n;
    load.disk = disk / n;
    // Queue-pressure extension: fold saturation overflow into the bottleneck
    // measure so fully-saturated groups still compare by demand.
    const double extra = config_.queue_pressure_weight * pressure / n;
    if (extra > 0) {
      if (load.cpu >= load.disk) {
        load.cpu += extra;
      } else {
        load.disk += extra;
      }
    }
  }
  return loads;
}

void MalbBalancer::AllocationTick() {
  if (frozen_) {
    return;
  }
  // Availability first: drop crashed replicas from their groups and adopt
  // restarted ones into the thinnest group; this runs even when filtering
  // froze the allocation, since redundancy trumps stability (Section 3).
  const bool membership_changed = PruneAndAdoptReplicas();
  if (membership_changed && filtering_installed_) {
    InstallSubscriptions();
  }
  if (filtering_installed_ && config_.filtering_mode == FilteringMode::kFreezeWhenStable) {
    return;  // Section 4.2.3: dynamics disabled under filtering
  }
  const std::vector<GroupLoad> loads = SnapshotLoads();
  bool moved = membership_changed;

  // Undoing a merge takes priority over stealing replicas: if a merged
  // replica became the hottest spot, the memory contention it created must
  // stop first.
  if (TrySplitMostLoaded(loads)) {
    moved = true;
  } else if (config_.enable_fast_realloc &&
             ShouldFastReallocate(loads, static_cast<int>(context_.proxies.size()))) {
    ApplyFastTargets(ComputeFastTargets(loads, static_cast<int>(context_.proxies.size())));
    moved = true;
  } else if (auto move = PickRebalanceMove(loads)) {
    MoveReplica(move->from, move->to);
    moved = true;
  } else if (config_.enable_merging && TryMerge(loads)) {
    moved = true;
  }

  if (filtering_installed_ && moved) {
    // Dynamic mode: the assignment changed, so the table subscriptions must
    // follow it (replicas joining a group pick its tables up cold).
    InstallSubscriptions();
  } else {
    MaybeInstallFiltering(moved, loads);
  }
}

bool MalbBalancer::PruneAndAdoptReplicas() {
  bool changed = false;
  std::vector<bool> assigned(context_.proxies.size(), false);
  for (auto& g : groups_) {
    for (size_t i = 0; i < g.replicas.size();) {
      const size_t r = g.replicas[i];
      // Drop crashed replicas, and replicas a resize left too small for
      // their group (they re-home through the adoption pass below).
      if (!context_.proxies[r]->available() || !Fits(r, g)) {
        g.replicas[i] = g.replicas.back();
        g.replicas.pop_back();
        changed = true;
      } else {
        assigned[r] = true;
        ++i;
      }
    }
  }
  for (size_t r = 0; r < context_.proxies.size(); ++r) {
    if (assigned[r] || !context_.proxies[r]->available()) {
      continue;
    }
    // A recovered (or newly added / resized / never-assigned) replica joins
    // the thinnest group it can host.
    groups_[ThinnestFeasibleGroup(r)].replicas.push_back(r);
    changed = true;
  }
  return changed;
}

bool MalbBalancer::TrySplitMostLoaded(const std::vector<GroupLoad>& loads) {
  size_t most = 0;
  for (size_t i = 1; i < loads.size(); ++i) {
    if (loads[i].Load() > loads[most].Load()) {
      most = i;
    }
  }
  if (loads.empty() || !groups_[most].merged()) {
    return false;
  }
  // Find a donor replica for the second half of the split.
  size_t donor = groups_.size();
  double min_future = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < groups_.size(); ++i) {
    if (i == most) {
      continue;
    }
    const double future = loads[i].FutureLoadIfRemoved();
    if (future < min_future) {
      min_future = future;
      donor = i;
    }
  }
  if (donor == groups_.size() || !std::isfinite(min_future)) {
    return false;
  }

  // Split: the merged group's packed halves become two runtime groups; the
  // first keeps the existing replicas, the second takes one from the donor —
  // which must be able to host the split-off half.
  RuntimeGroup second;
  second.packed.assign(groups_[most].packed.begin() + 1, groups_[most].packed.end());
  const size_t stolen = PickDonorReplica(groups_[donor], &second);
  if (stolen == SIZE_MAX) {
    return false;  // no donor replica fits the split-off group
  }
  groups_[most].packed.resize(1);
  second.replicas.push_back(stolen);
  ++replica_moves_;
  groups_.push_back(std::move(second));
  RebuildTypeMap();
  return true;
}

bool MalbBalancer::TryMerge(const std::vector<GroupLoad>& loads) {
  auto pick = PickMergeCandidates(loads);
  if (!pick) {
    return false;
  }
  auto [a, b] = *pick;
  // Merge b into a: both packed groups share a's single replica, b's replica
  // is freed for the most loaded group.
  size_t most = 0;
  for (size_t i = 1; i < loads.size(); ++i) {
    if (loads[i].Load() > loads[most].Load()) {
      most = i;
    }
  }
  if (most == a || most == b) {
    return false;  // nothing would gain from the reclaimed replica
  }
  // a's replicas must be able to host the union of both groups' working
  // sets; on a heterogeneous cluster merging a big group onto a small
  // replica would thrash and be undone next tick.
  {
    RuntimeGroup merged_preview = groups_[a];
    merged_preview.packed.insert(merged_preview.packed.end(), groups_[b].packed.begin(),
                                 groups_[b].packed.end());
    for (size_t r : groups_[a].replicas) {
      if (!Fits(r, merged_preview)) {
        return false;
      }
    }
  }
  RuntimeGroup& ga = groups_[a];
  RuntimeGroup& gb = groups_[b];
  ga.packed.insert(ga.packed.end(), gb.packed.begin(), gb.packed.end());
  const size_t freed = gb.replicas.front();
  // Erase b before re-homing the freed replica so fallback group indices are
  // valid (most != a and most != b, checked above).
  const size_t most_after = most > b ? most - 1 : most;
  groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(b));
  if (Fits(freed, groups_[most_after])) {
    groups_[most_after].replicas.push_back(freed);
  } else {
    groups_[ThinnestFeasibleGroup(freed)].replicas.push_back(freed);
  }
  ++replica_moves_;
  RebuildTypeMap();
  return true;
}

size_t MalbBalancer::PickDonorReplica(RuntimeGroup& donor, const RuntimeGroup* target) {
  // Take the replica with the fewest outstanding transactions (in-flight work
  // drains where it is, new work routes to the new group immediately) among
  // those able to host the target group. SIZE_MAX when none can.
  size_t best_idx = donor.replicas.size();
  size_t best_out = SIZE_MAX;
  for (size_t i = 0; i < donor.replicas.size(); ++i) {
    const size_t r = donor.replicas[i];
    if (target != nullptr && !Fits(r, *target)) {
      continue;
    }
    const size_t out = context_.proxies[r]->outstanding();
    if (out < best_out) {
      best_idx = i;
      best_out = out;
    }
  }
  if (best_idx == donor.replicas.size()) {
    return SIZE_MAX;
  }
  const size_t replica = donor.replicas[best_idx];
  donor.replicas.erase(donor.replicas.begin() + static_cast<std::ptrdiff_t>(best_idx));
  return replica;
}

void MalbBalancer::MoveReplica(size_t from_group, size_t to_group) {
  if (groups_[from_group].replicas.size() <= 1) {
    return;  // never strand a group
  }
  const size_t replica = PickDonorReplica(groups_[from_group], &groups_[to_group]);
  if (replica == SIZE_MAX) {
    return;  // no donor replica can host the destination group
  }
  groups_[to_group].replicas.push_back(replica);
  ++replica_moves_;
}

void MalbBalancer::ApplyFastTargets(const std::vector<int>& targets) {
  // Collect surplus replicas from groups above target, hand them to groups
  // below target, largest deficit first; a needy group only receives pool
  // replicas that can host it.
  std::vector<size_t> pool;
  for (size_t g = 0; g < groups_.size(); ++g) {
    while (static_cast<int>(groups_[g].replicas.size()) > targets[g] &&
           groups_[g].replicas.size() > 1) {
      pool.push_back(PickDonorReplica(groups_[g], nullptr));
    }
  }
  std::vector<bool> unsatisfiable(groups_.size(), false);
  while (!pool.empty()) {
    size_t needy = groups_.size();
    int worst_deficit = 0;
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (unsatisfiable[g]) {
        continue;
      }
      const int deficit = targets[g] - static_cast<int>(groups_[g].replicas.size());
      if (deficit > worst_deficit) {
        worst_deficit = deficit;
        needy = g;
      }
    }
    if (needy == groups_.size()) {
      // Targets met (or unmeetable): re-home leftovers to any group they fit.
      const size_t replica = pool.back();
      pool.pop_back();
      groups_[ThinnestFeasibleGroup(replica)].replicas.push_back(replica);
      ++replica_moves_;
      continue;
    }
    // Newest pool entry first (preserves the homogeneous pop_back order),
    // skipping replicas too small for the needy group.
    size_t take = pool.size();
    for (size_t i = pool.size(); i-- > 0;) {
      if (Fits(pool[i], groups_[needy])) {
        take = i;
        break;
      }
    }
    if (take == pool.size()) {
      unsatisfiable[needy] = true;  // nothing in the pool can host it
      continue;
    }
    groups_[needy].replicas.push_back(pool[take]);
    ++replica_moves_;
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(take));
  }
}

void MalbBalancer::RegroupTick() {
  if (filtering_installed_ || frozen_) {
    return;
  }
  RepackIfChanged();
}

uint64_t MalbBalancer::PackingSignature(const PackingResult& packing) const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& g : packing.groups) {
    mix(0x9e3779b9);
    for (TxnTypeId t : g.types) {
      mix(t + 1);
    }
  }
  return h;
}

TableMask MalbBalancer::GroupTables(const RuntimeGroup& group) const {
  // Subscription = every relation referenced by any member type (not just the
  // packed/scanned ones): the replica must apply updates for all tables its
  // transactions read.
  TableMask tables;
  for (size_t p : group.packed) {
    for (TxnTypeId t : packing_.groups[p].types) {
      for (const auto& e : working_sets_[t].relations) {
        tables.Set(e.relation);
      }
    }
  }
  return tables;
}

void MalbBalancer::MaybeInstallFiltering(bool moved, const std::vector<GroupLoad>& loads) {
  if (!config_.update_filtering || filtering_installed_) {
    return;
  }
  // Filtering freezes the allocation, so it must only engage once the
  // allocation has truly converged: no moves this tick AND every group within
  // one replica of its balance-equation target. A transient lull with a badly
  // skewed allocation must not freeze the system into it.
  bool converged = !moved;
  if (converged) {
    const std::vector<int> targets =
        ComputeFastTargets(loads, static_cast<int>(context_.proxies.size()));
    for (size_t g = 0; g < groups_.size() && g < targets.size(); ++g) {
      if (std::abs(targets[g] - static_cast<int>(groups_[g].replicas.size())) > 1) {
        converged = false;
        break;
      }
    }
  }
  stable_ticks_ = converged ? stable_ticks_ + 1 : 0;
  if (stable_ticks_ < config_.stable_ticks_for_filtering) {
    return;
  }

  filtering_installed_ = true;
  InstallSubscriptions();
}

void MalbBalancer::InstallSubscriptions() {
  std::vector<std::vector<ReplicaId>> group_replicas;
  std::vector<TableMask> group_tables;
  for (const auto& g : groups_) {
    std::vector<ReplicaId> ids;
    for (size_t r : g.replicas) {
      ids.push_back(context_.proxies[r]->replica_id());
    }
    group_replicas.push_back(std::move(ids));
    group_tables.push_back(GroupTables(g));
  }
  const auto standbys = PlanStandbys(group_replicas, group_tables, kMinCopies);

  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t r : groups_[g].replicas) {
      Proxy* proxy = context_.proxies[r];
      TableMask subscription = group_tables[g];
      // A replica can serve several merged groups; GroupTables already merged
      // them. Add standby duties.
      auto it = standbys.find(proxy->replica_id());
      if (it != standbys.end()) {
        subscription.OrWith(it->second);
      }
      // Drop only what changed: relations leaving the subscription free their
      // cache space; relations entering it are stale (their updates were
      // filtered) and must be reread from a clean slate. Unchanged tables keep
      // their cache — rebuilds must not wipe warm replicas. The scan iterates
      // schema relations in declaration order (a DropRelation sequence is a
      // sink).
      const auto& old_sub = proxy->subscription();
      for (const auto& rel : context_.schema->relations()) {
        const bool now_in = subscription.Test(rel.id);
        const bool was_in = !old_sub.has_value() || old_sub->Test(rel.id);
        if (now_in != was_in) {
          proxy->replica().DropRelation(rel.id);
        }
      }
      proxy->SetSubscription(subscription);
    }
  }
}

std::vector<std::vector<TxnTypeId>> MalbBalancer::GroupTypeIds() const {
  std::vector<std::vector<TxnTypeId>> out;
  for (const auto& g : groups_) {
    std::vector<TxnTypeId> types;
    for (size_t p : g.packed) {
      types.insert(types.end(), packing_.groups[p].types.begin(), packing_.groups[p].types.end());
    }
    std::sort(types.begin(), types.end());
    out.push_back(std::move(types));
  }
  return out;
}

std::vector<int> MalbBalancer::GroupReplicaCounts() const {
  std::vector<int> out;
  for (const auto& g : groups_) {
    out.push_back(static_cast<int>(g.replicas.size()));
  }
  return out;
}

}  // namespace tashkent
