// Forwards for perfbench/simbench/rep.cc, which schedules its churn outage
// through them. Everything else applies verbs with Cluster::Apply/At.
#ifndef SRC_CLUSTER_MUTATOR_H_
#define SRC_CLUSTER_MUTATOR_H_

#include "src/cluster/cluster.h"

namespace tashkent {

class ClusterMutator {
 public:
  explicit ClusterMutator(Cluster* cluster) : cluster_(cluster) {}
  void KillReplicaAt(SimDuration delay, size_t index) { cluster_->At(delay, KillReplica{index}); }
  void RecoverReplicaAt(SimDuration delay, size_t index) {
    cluster_->At(delay, RecoverReplica{index});
  }

 private:
  Cluster* cluster_;
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_MUTATOR_H_
