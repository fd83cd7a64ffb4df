// Isolated replays: host cost per operation of the layers simbench cannot
// time from outside during a run, because only the event kernel calls them.
// Each replay drives the layer's public functions on inputs shaped like the
// traced run (its pending-event depth, its workload's relations, skew and pool
// capacity, its own certifier log entries). A layer's estimated time in the
// run is then its operation count times the replayed ns per operation.
#ifndef PERFBENCH_SIMBENCH_REPLAY_H_
#define PERFBENCH_SIMBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simbench/scripts.h"
#include "src/gsi/writeset.h"

namespace perfbench {

// Simulator::ScheduleAt + RunUntil with `depth` events pending throughout:
// every fired event schedules its successor.
struct KernelReplay {
  uint64_t events = 0;
  double ns_per_event = 0.0;
};
KernelReplay ReplayKernel(size_t depth, uint64_t seed);

// BufferPool TouchScanWindow / TouchRandom / DirtyRandom / TakeDirtyForFlush
// on one replica-sized pool, executing the script mix's plans as a replica
// does, plus `applies_per_txn` remote-writeset applications per transaction.
// The pool is warmed to capacity first; `budget_s` of host time is timed.
struct PoolReplay {
  uint64_t page_touches = 0;
  double ns_per_page_touch = 0.0;
};
PoolReplay ReplayPool(const Script& script, double applies_per_txn, uint64_t seed,
                      double budget_s);

// Certifier::Certify over `log` (entries in commit order, each re-based so
// its snapshot lags the replay's head by as much as it lagged in the run),
// into a fresh certifier with `replicas` registered replicas, timed per tenth
// of the replay; then Certifier::Pull.
struct CertifierReplay {
  uint64_t certifies = 0;
  std::vector<double> decile_ns_per_certify;  // 10 entries, empty if no log
  uint64_t pulls = 0;
  double ns_per_pull = 0.0;
};
CertifierReplay ReplayCertifier(const std::vector<tashkent::Writeset>& log, size_t replicas);

}  // namespace perfbench

#endif  // PERFBENCH_SIMBENCH_REPLAY_H_
