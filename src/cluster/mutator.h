// ClusterMutator: Verbs (src/cluster/verb.h) applied to a running cluster,
// now or as simulator events.
//
// The paper's Figure 6 shows MALB re-grouping after a LOAD change; the
// mutator also opens the other axis of dynamic reconfiguration — the CLUSTER
// changing under the load. It adds two things to the Cluster's verb methods:
// (a) scheduling, so a campaign can script `fail@t=120s, recover@t=300s`
// timelines as ordinary simulator events that fire inside a measure window,
// and (b) a mutation log, so reports can line mutations up against the
// throughput timeline.
//
// Apply(verb) runs the verb at the current instant. At(delay, verb) with a
// delay above 0 schedules exactly one simulator event `delay` after the
// current instant and returns immediately; a delay of 0 (or less) applies at
// once and schedules nothing. Interleave At with Cluster::Advance/Measure (or
// ScenarioBuilder phases, which wrap exactly this) to drop mutations into the
// middle of a window.
#ifndef SRC_CLUSTER_MUTATOR_H_
#define SRC_CLUSTER_MUTATOR_H_

#include <memory>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/verb.h"

namespace tashkent {

// One applied verb, recorded when it executes (not when it was scheduled),
// in execution order.
struct MutationRecord {
  SimTime at = 0;  // simulated time the verb fired
  Verb verb;
  size_t added = 0;  // AddReplica only: the index the new replica received
};

class ClusterMutator {
 public:
  explicit ClusterMutator(Cluster* cluster) : cluster_(cluster) {}

  ClusterMutator(const ClusterMutator&) = delete;
  ClusterMutator& operator=(const ClusterMutator&) = delete;

  // Applies `verb` now through the matching Cluster method and logs it.
  void Apply(const Verb& verb);

  // Applies `verb` `delay` from now (see the header comment). Scheduled
  // verbs are tied to this mutator's lifetime: destroying the mutator
  // cancels any not-yet-fired verbs (the event fires but finds the liveness
  // token expired and does nothing), so a scheduled kill can never outlive
  // the scenario that scripted it. Scheduling never allocates: the event
  // captures {token, this, verb} inline (tests/churn_test.cc pins it).
  void At(SimDuration delay, Verb verb);

  // Forwards kept for perfbench/simbench/rep.cc, which schedules its churn
  // outage through them.
  void KillReplicaAt(SimDuration delay, size_t index) { At(delay, KillReplica{index}); }
  void RecoverReplicaAt(SimDuration delay, size_t index) { At(delay, RecoverReplica{index}); }

  // Applied verbs in execution order. Scheduled verbs appear only once they
  // have fired.
  const std::vector<MutationRecord>& log() const { return log_; }

 private:
  Cluster* cluster_;
  std::vector<MutationRecord> log_;
  // Liveness token for scheduled verbs; reset on destruction, so in-flight
  // events observe expiry instead of dereferencing a dead mutator.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_MUTATOR_H_
