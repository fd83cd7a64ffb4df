// One repetition of a workload script: set-up (workload build, calibration,
// cluster construction), then the run, stepped in fixed simulated-time
// slices. Each slice is timed and followed by a host-speed probe, and every
// layer's public counters are read at each slice boundary.
//
// Untraced repetitions run the stock "MALB-SC" policy. Tracing
// (RepOptions::traced) swaps in MeteredMalb, a MalbBalancer subclass
// registered under its own policy name, which counts and times every Route
// call; the cluster's dynamic_cast to MalbBalancer keeps working, and the
// outcome digest, which leaves the route count out, must not change.
#ifndef PERFBENCH_SIMBENCH_REP_H_
#define PERFBENCH_SIMBENCH_REP_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "simbench/scripts.h"
#include "src/gsi/writeset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds from `start` to now.
double SecondsSince(Clock::time_point start);

// Host-speed probe: ns per operation of a fixed loop of random
// read-modify-writes over a table of kProbeTableBytes, independent of the
// simulator's code. Taken after every slice, it lets run.py scale a rep's
// host times to a nominal host speed, so interference from other tenants of
// a shared machine, which slows the probe and the simulator alike, cancels.
// The first call allocates and touches the table.
inline constexpr size_t kProbeTableBytes = size_t{16} << 20;
double HostProbeNs();

// Registry names of the stock policy and of its metering subclass;
// RegisterMeteredPolicy must run once before any traced repetition.
inline constexpr const char* kStockPolicy = "MALB-SC";
inline constexpr const char* kMeteredPolicy = "MALB-SC/perfbench-metered";
void RegisterMeteredPolicy();

// Every counter simbench reads from the library's public accessors at a
// slice boundary, summed over replicas and proxies. All are deterministic
// per (script, seed).
#define PERFBENCH_COUNTERS(X)                                                   \
  X(sim_events) X(sim_pending)                                                  \
  X(pool_hits) X(pool_misses) X(pool_evicted) X(pool_dirtied) X(pool_flushed)   \
  X(replica_txns) X(replica_applied) X(replica_read_bytes)                      \
  X(replica_write_bytes) X(replica_apply_read_bytes) X(replica_ckpt_installs)   \
  X(committed) X(aborted) X(read_only) X(rejected) X(gave_up) X(update_commits) \
  X(in_flight) X(proxy_applied) X(proxy_filtered) X(mask_skipped) X(pulls)      \
  X(prods) X(replay_applied) X(replay_filtered) X(recoveries)                   \
  X(recovery_time_s)                                                            \
  X(certified) X(cert_aborted) X(log_chunks) X(arena_bytes) X(log_head)         \
  X(realloc_moves) X(clients_modeled) X(prunes)

struct Counters {
#define PERFBENCH_DECLARE(name) double name = 0.0;
  PERFBENCH_COUNTERS(PERFBENCH_DECLARE)
#undef PERFBENCH_DECLARE

  // (name, value) in declaration order, for rendering.
  std::vector<std::pair<std::string, double>> Fields() const;
  // FNV-1a over the exact bit pattern of every field: the outcome digest.
  uint64_t Digest() const;
};

struct RepOptions {
  bool traced = false;
  // false = one uninterrupted Advance over the whole script (no boundary
  // reads), the reference the slice-stepped run must equal.
  bool sliced = true;
  // When set, certifier log entries still present at each slice boundary are
  // copied here (up to a fixed cap) for the isolated certifier replay.
  std::vector<tashkent::Writeset>* log_sample = nullptr;
};

struct RepResult {
  // Host seconds of the set-up phases; setup_s runs from `setup_origin`
  // (process start for the first repetition) to the first simulated event.
  double build_s = 0.0;
  double calibrate_s = 0.0;
  double construct_s = 0.0;
  double setup_s = 0.0;
  // Host seconds spent inside Cluster::Advance.
  double run_s = 0.0;
  int clients_per_replica = 0;
  Counters end;
  // Gauges sampled at slice boundaries.
  double pending_max = 0.0;
  double log_chunks_max = 0.0;
  double arena_bytes_max = 0.0;
  // Host milliseconds per slice and HostProbeNs() after each slice (sliced
  // repetitions only), and the count and summed time of Route calls (traced
  // only).
  std::vector<double> slice_ms;
  std::vector<double> probe_ns;
  double routes = 0.0;
  double route_s = 0.0;
};

RepResult RunRep(const Script& script, uint64_t seed, const RepOptions& options,
                 Clock::time_point setup_origin);

}  // namespace perfbench

#endif  // PERFBENCH_SIMBENCH_REP_H_
