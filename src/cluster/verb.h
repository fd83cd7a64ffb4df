// Verb: one scripted change to a running cluster, as a plain value.
//
// Churn, certifier faults, and load shifts are all the same thing to a
// script: something that happens to the cluster at an instant. Each is a
// small aggregate here, and `Verb` is their variant. Cluster::Apply applies
// a Verb now and Cluster::At schedules it as a simulator event
// (src/cluster/cluster.h); ScenarioBuilder slots it between phases
// (src/cluster/scenario.h). Because a verb is data, a script can be
// generated, compared, and shrunk.
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
// recovery lag. If the log was pruned past the replica's durable prefix, a
// checkpoint image is installed first (CheckpointPolicy::checkpoint_join).
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
// new capacities. Throws std::invalid_argument when `memory` is not above
// the configured reservation.
struct ResizeMemory {  // verb: ResizeMemory
  size_t replica = 0;
  Bytes memory = 0;
};

// --- certifier faults --------------------------------------------------------
// CrashCertifier and PartitionProxy lose messages, which only the proxies'
// timeouts recover: both throw std::logic_error, before touching anything,
// unless ProxyConfig::retry is enabled (an armed FaultPlan enables it).

// Fail-stop the certifier primary: requests go unanswered, proxy timeouts
// drive retries, writes queue behind the gatekeeper bound.
struct CrashCertifier {};  // verb: CrashCertifier

// Promote the warm standby; stale-epoch requests are fenced and resent
// against the new primary. Also a planned handover while the primary still
// serves, with or without retry. Starts the failover-recovery clock, which
// the first client commit stops.
struct FailoverCertifier {};  // verb: FailoverCertifier

// Drop every message from the replica's proxy for `duration` (a one-way
// link partition: responses to earlier requests still arrive).
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
