// Verb: one scripted change to a running cluster, as a plain value.
//
// Churn, certifier faults, and load shifts are all the same thing to a
// script: something that happens to the cluster at an instant. Each is a
// small aggregate here, and `Verb` is their variant. ClusterMutator applies
// a Verb now or schedules it as a simulator event (src/cluster/mutator.h);
// ScenarioBuilder slots it between phases (src/cluster/scenario.h). Because a
// verb is data, a script can be generated, logged, compared, and shrunk.
//
// docs/OPERATIONS.md is the operator-facing cookbook; the `verb:` tags below
// are machine-read by scripts/ci.sh to keep that handbook complete.
#ifndef SRC_CLUSTER_VERB_H_
#define SRC_CLUSTER_VERB_H_

#include <cstddef>
#include <string>
#include <variant>

#include "src/common/units.h"

namespace tashkent {

// --- churn -------------------------------------------------------------------

// Fail-stop: the replica rejects new work until recovered.
struct KillReplica {  // verb: KillReplica
  size_t replica = 0;
};

// Begin recovery: cold cache, replay the certifier's committed-writeset log
// (through the update-filtering subscription, which decides how much must
// actually be applied), rejoin when caught up. The replay time is the
// recovery lag.
struct RecoverReplica {  // verb: RecoverReplica
  size_t replica = 0;
};

// Elastic scale-out: a new replica joins in recovering state, installs a
// checkpoint image, and replays only the suffix (with checkpoint_join off it
// replays the whole log). `memory` 0 uses the configured default.
struct AddReplica {  // verb: AddReplica
  Bytes memory = 0;
};

// Elastic resize: shrinking evicts cache; the balancer re-packs against the
// new capacities.
struct ResizeMemory {  // verb: ResizeMemory
  size_t replica = 0;
  Bytes memory = 0;
};

// --- certifier faults --------------------------------------------------------

// Fail-stop the certifier primary: requests go unanswered, proxy timeouts
// drive retries, writes queue behind the gatekeeper bound.
struct CrashCertifier {};  // verb: CrashCertifier

// Promote the warm standby; stale-epoch requests are fenced and resent
// against the new primary.
struct FailoverCertifier {};  // verb: FailoverCertifier

// Drop every message from the replica's proxy for `duration` (a one-way
// link partition).
struct PartitionProxy {  // verb: PartitionProxy
  size_t replica = 0;
  SimDuration duration = 0;
};

// --- load --------------------------------------------------------------------

// Switch every client to the named mix (takes effect for each client's next
// transaction).
struct SwitchMix {  // verb: SwitchMix
  std::string mix;
};

// Retarget the client population (flash crowds, diurnal curves): growing
// staggers new clients in over one think time, shrinking drains surplus
// in-flight work.
struct SetPopulation {  // verb: SetPopulation
  size_t population = 0;
};

// Pin MALB's current allocation (the paper's static-configuration
// baseline); no-op for non-MALB policies.
struct FreezeAllocation {};  // verb: FreezeAllocation

using Verb = std::variant<KillReplica, RecoverReplica, AddReplica, ResizeMemory, CrashCertifier,
                          FailoverCertifier, PartitionProxy, SwitchMix, SetPopulation,
                          FreezeAllocation>;

}  // namespace tashkent

#endif  // SRC_CLUSTER_VERB_H_
