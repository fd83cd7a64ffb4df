#include "src/cluster/mutator.h"

#include <utility>

namespace tashkent {

namespace {

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <typename... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

}  // namespace

void ClusterMutator::Apply(const Verb& verb) {
  Cluster& c = *cluster_;
  MutationRecord record{c.sim().Now(), verb};
  std::visit(Overloaded{
                 [&](const KillReplica& v) { c.KillReplica(v.replica); },
                 [&](const RecoverReplica& v) { c.RecoverReplica(v.replica); },
                 [&](const AddReplica& v) { record.added = c.AddReplica(v.memory); },
                 [&](const ResizeMemory& v) { c.ResizeMemory(v.replica, v.memory); },
                 [&](const CrashCertifier&) { c.CrashCertifier(); },
                 [&](const FailoverCertifier&) { c.FailoverCertifier(); },
                 [&](const PartitionProxy& v) { c.PartitionProxy(v.replica, v.duration); },
                 [&](const SwitchMix& v) { c.SwitchMix(v.mix); },
                 [&](const SetPopulation& v) { c.SetPopulation(v.population); },
                 [&](const FreezeAllocation&) { c.FreezeAllocation(); },
             },
             verb);
  log_.push_back(std::move(record));
}

void ClusterMutator::At(SimDuration delay, Verb verb) {
  if (delay <= 0) {
    Apply(verb);
    return;
  }
  // The weak token makes a destroyed mutator's pending events no-ops instead
  // of use-after-free: the cluster (and its simulator) outlive the event, the
  // mutator may not.
  cluster_->sim().ScheduleAfter(
      delay, [alive = std::weak_ptr<bool>(alive_), this, verb = std::move(verb)]() {
        if (alive.lock()) {
          Apply(verb);
        }
      });
}

}  // namespace tashkent
