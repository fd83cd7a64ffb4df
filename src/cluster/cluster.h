// Cluster wiring: replicas + proxies + certifier + balancer + clients.
//
// One Cluster is one experiment instance: it owns the simulator and every
// component, runs warmup + measurement windows, and produces the metrics the
// paper reports — throughput (tps), response time, and per-replica disk
// read/write KB per transaction (Tables 1/3/5), plus MALB groupings
// (Tables 2/4) and a throughput timeline (Figure 6).
//
// The balancer is resolved by name through the PolicyRegistry
// (src/balancer/registry.h): adding a policy never touches this header.
// Multi-phase runs are scripted with ScenarioBuilder (src/cluster/scenario.h)
// on top of the raw hooks below.
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/balancer/balancer.h"
#include "src/balancer/malb.h"
#include "src/certifier/certifier.h"
#include "src/certifier/channel.h"
#include "src/cluster/verb.h"
#include "src/common/stats.h"
#include "src/proxy/proxy.h"
#include "src/replica/replica.h"
#include "src/workload/client.h"
#include "src/workload/workload.h"

namespace tashkent {

// Checkpoint/state-transfer joins and the bounded certifier log
// (docs/OPERATIONS.md, "Checkpoints and log pruning").
struct CheckpointPolicy {
  // Joining (AddReplica) and backfilling (RecoverReplica past the prune line)
  // replicas install a checkpoint image at version V and replay only
  // (V, head], instead of the legacy full-log replay. Off = legacy joins,
  // which throw once the log is pruned.
  bool checkpoint_join = true;
  // Periodically prune the certifier log below the cluster-wide safe floor
  // (min over every replica of its durable applied version, with an in-flight
  // checkpoint install counting as its image version), and the conflict
  // index below the GSI-safe point (min over every replica of its applied
  // version and its parked certifications' snapshots; Proxy::snapshot_floor).
  // Both floors are conservative — what lies below them is provably dead — so
  // pruning never changes results, only bounds certifier memory. Requires
  // checkpoint_join: a legacy join into a pruned log cannot replay, so the
  // Cluster constructor throws std::invalid_argument on auto_prune without it.
  bool auto_prune = true;
  SimDuration prune_period = Seconds(30.0);
};

// Width of the throughput timeline buckets (Figure 6 uses 30 s).
inline constexpr SimDuration kTimelineBucket = Seconds(30.0);

struct ClusterConfig {
  // At least 1; the constructor throws std::invalid_argument for 0.
  size_t replicas = 16;
  ReplicaConfig replica;
  // Per-replica RAM overrides for heterogeneous clusters: when non-empty it
  // must have exactly `replicas` entries and replica i gets replica_memory[i]
  // instead of replica.memory (everything else in `replica` still applies).
  // The constructor throws std::invalid_argument on a size mismatch.
  std::vector<Bytes> replica_memory;
  ProxyConfig proxy;
  CheckpointPolicy checkpoint;
  MalbConfig malb;  // method is overridden by the MALB-S/SC/SCAP factories
  // Clients per replica; 0 means the caller must calibrate (see
  // calibration.h) — the Cluster constructor requires a concrete value.
  int clients_per_replica = 6;
  SimDuration mean_think = Millis(500);
  // Generate load with the O(1)-state fluid aggregate model
  // (src/workload/fluid_pool.h) instead of one event chain per client.
  // Law-identical but not bit-identical to the per-client model; required
  // for O(100k-1M) populations.
  bool fluid_clients = false;
  // Message faults on the proxy<->certifier channel (drop/delay/duplicate/
  // partition; src/certifier/channel.h). An unarmed plan is byte-inert. An
  // armed plan implies proxy.retry.enabled — a lossy channel without retries
  // would silently lose transactions.
  FaultPlan faults;
  uint64_t seed = 42;
};

struct GroupReport {
  std::vector<std::string> types;
  int replicas = 0;
};

inline bool operator==(const GroupReport& a, const GroupReport& b) {
  return a.replicas == b.replicas && a.types == b.types;
}

// --- Window metrics ------------------------------------------------------------
// Every metric a measure window reports is declared exactly once, as
// X(type, name, init) in one of the two lists below. The lists drive the
// ExperimentResult fields, the ToJson run-record columns, the faults
// campaign's scalars, and DifferingMetrics. Adding a metric is one list line
// plus the line in Cluster::Collect that sets it (docs/ARCHITECTURE.md).
// Supported types: double, uint64_t, bool.
//
// A window is scoped by zeroing: Cluster::ResetMetrics zeroes every counter
// a window reports when the window opens (one reset call per component), and
// Collect reads the counters as they stand. A new counter joins its
// component's reset; nothing is snapshotted and subtracted.

// The run-record columns of every BENCH_*.json "runs" object, in key order
// (docs/OPERATIONS.md has the glossary). Appending changes every result
// document; tests/golden_digest_test.cc pins the current bytes.
#define TASHKENT_RUN_METRICS(X)                                                  \
  X(double, tps, 0.0)                                                            \
  X(double, mean_response_s, 0.0)                                                \
  X(double, p95_response_s, 0.0)                                                 \
  X(uint64_t, committed, 0)                                                      \
  X(uint64_t, aborted, 0)                                                        \
  /* Per-replica average disk traffic per committed transaction (KB). */         \
  X(double, read_kb_per_txn, 0.0)                                                \
  X(double, write_kb_per_txn, 0.0)                                               \
  /* --- churn metrics --- */                                                    \
  /* Submissions refused by down/recovering replicas during the window. */       \
  X(uint64_t, rejected, 0)                                                       \
  /* Fraction of client attempts not lost to unavailability: */                  \
  /* 1 - rejected / (committed + client-visible aborts). 1.0 when idle. */       \
  X(double, availability, 1.0)                                                   \
  /* Recoveries completed inside the window and their mean replay time. */       \
  X(uint64_t, recoveries, 0)                                                     \
  X(double, recovery_lag_s, 0.0)                                                 \
  /* Writesets applied vs filtered during recovery replay (update filtering */   \
  /* is what shrinks replay volume — the Section 3 claim under churn). */        \
  X(uint64_t, replay_applied, 0)                                                 \
  X(uint64_t, replay_filtered, 0)                                                \
  /* --- checkpoint / bounded-log metrics --- */                                 \
  /* High-water marks of certifier memory over the window (sampled at each */   \
  /* prune tick, before pruning, and at collection): live log chunks, live */    \
  /* arena bytes, and rows in the conflict index. Bounded under churn when */    \
  /* auto-pruning is on; grow monotonically when it is off. */                   \
  X(uint64_t, log_chunks_hwm, 0)                                                 \
  X(uint64_t, arena_bytes_hwm, 0)                                                \
  X(uint64_t, conflict_rows_hwm, 0)                                              \
  /* Mean latency of the joins completed in the window (state transfer + */      \
  /* delta replay, end to end). With checkpoint joins it is independent of */    \
  /* cluster age; legacy joins replay the whole log. */                          \
  X(double, join_latency_s, 0.0)                                                 \
  /* --- skew metrics (load shape under fluid/Zipfian workloads) --- */          \
  /* Coefficient of variation (stddev/mean) of per-replica transactions */       \
  /* executed over the window: 0 = perfectly even load, grows with skew. */      \
  X(double, unevenness, 0.0)                                                     \
  /* Buffer-pool miss fraction over the window, summed across replicas */        \
  /* (misses / (hits + misses) of read-path and apply-path touches). */          \
  X(double, miss_rate, 0.0)                                                      \
  /* Balancer-initiated replica moves during the window (MALB reallocation */    \
  /* cost: group moves, pool pushes, splits, merges; 0 for other policies). */   \
  X(uint64_t, realloc_moves, 0)                                                  \
  /* Client population target at collection time (fluid or per-client). */      \
  X(uint64_t, clients_modeled, 0)                                                \
  /* True when the fluid aggregate client model generated the load. */           \
  X(bool, fluid, false)

// Fault-injection / failover metrics. Not rendered into run records (that
// would change every result document); the faults campaign reports them as
// campaign scalars through ResultSink.
#define TASHKENT_FAULT_METRICS(X)                                                \
  /* Messages lost on the channel (drop probability + partition windows) */      \
  /* and duplicated/delayed deliveries, over the window. */                      \
  X(uint64_t, msgs_dropped, 0)                                                   \
  X(uint64_t, msgs_duplicated, 0)                                                \
  X(uint64_t, msgs_delayed, 0)                                                   \
  /* Proxy retry-protocol activity over the window. */                           \
  X(uint64_t, cert_timeouts, 0)                                                  \
  X(uint64_t, cert_retries, 0)                                                   \
  X(uint64_t, pull_retries, 0)                                                   \
  X(uint64_t, fenced, 0)                                                         \
  X(uint64_t, stale_responses, 0)                                                \
  X(uint64_t, dedup_hits, 0)                                                     \
  /* Peak certifications parked (in flight or backing off) on any one */         \
  /* proxy: the degraded-mode write queue, bounded by the gatekeeper */          \
  /* admission limit. */                                                         \
  X(uint64_t, write_queue_hwm, 0)                                                \
  /* Certifier failover accounting: crashes/failovers in the window, total */    \
  /* time the certifier was unserving, and the time from failover until the */   \
  /* first client commit (the client-visible takeover latency). */               \
  X(uint64_t, cert_crashes, 0)                                                   \
  X(uint64_t, cert_failovers, 0)                                                 \
  X(double, cert_downtime_s, 0.0)                                                \
  X(double, failover_recovery_s, 0.0)

// The metrics of one measure window. Whole-run data (the throughput timeline,
// executed events) lives on ScenarioResult.
struct ExperimentResult {
#define TASHKENT_DECLARE_METRIC(type, name, init) type name = init;
  TASHKENT_RUN_METRICS(TASHKENT_DECLARE_METRIC)
  TASHKENT_FAULT_METRICS(TASHKENT_DECLARE_METRIC)
#undef TASHKENT_DECLARE_METRIC
  // JoinAsNew lifecycles completed in the window (join_latency_s is their
  // mean). Also counted in `recoveries`; in neither output.
  uint64_t joins = 0;
  // MALB groupings at the end of the run (empty for other policies).
  std::vector<GroupReport> groups;
};

// Names of every metric (both lists, plus `joins` and `groups`) on which `a`
// and `b` differ, in declaration order; empty when they are identical.
// Comparison is exact (==): the contract it backs is byte-identity of the
// rendered results, not closeness.
std::vector<std::string> DifferingMetrics(const ExperimentResult& a, const ExperimentResult& b);

class Cluster {
 public:
  // `policy` names a PolicyRegistry entry; throws std::invalid_argument
  // (listing the registered names) when unknown. The workload must outlive
  // the Cluster — binding a temporary is rejected at compile time.
  Cluster(const Workload& workload, std::string mix_name, std::string policy,
          ClusterConfig config);
  Cluster(const Workload&& workload, std::string mix_name, std::string policy,
          ClusterConfig config) = delete;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs warmup (metrics discarded) then measurement; returns the result.
  ExperimentResult Run(SimDuration warmup, SimDuration measure);

  // Advances simulated time without collecting metrics.
  void Advance(SimDuration d);
  // Resets measurement counters and measures one window.
  ExperimentResult Measure(SimDuration measure);

  // --- Verbs ------------------------------------------------------------------
  // Applies one Verb (src/cluster/verb.h, which says what each does and when
  // it throws) at the current instant.
  void Apply(const Verb& verb);
  // Applies `verb` `delay` from now. A delay of 0 (or less) applies at once
  // and schedules nothing; otherwise exactly one simulator event carries
  // {this, verb} inline, so scheduling never allocates (tests/churn_test.cc
  // pins it). The cluster owns the event: a verb still pending when a
  // ScenarioBuilder::RunOn returns fires during the cluster's next advance.
  void At(SimDuration delay, Verb verb);
  // Apply(SetPopulation{population}); kept for perfbench/simbench/rep.cc.
  void SetPopulation(size_t population) { Apply(tashkent::SetPopulation{population}); }

  Simulator& sim() { return sim_; }
  Certifier& certifier() { return certifier_; }
  const Certifier& certifier() const { return certifier_; }
  // Prune ticks that actually advanced the log's prune line.
  uint64_t prunes() const { return prunes_; }
  MalbBalancer* malb() { return malb_; }
  LoadBalancer& balancer() { return *balancer_; }
  const std::vector<std::unique_ptr<Replica>>& replicas() const { return replicas_; }
  const std::vector<std::unique_ptr<Proxy>>& proxies() const { return proxies_; }
  ClientSource& clients() { return *clients_; }

  const Workload& workload() const { return *workload_; }
  const std::string& policy_name() const { return policy_name_; }
  // The currently active mix (tracks the SwitchMix verb).
  const std::string& mix_name() const { return mix_name_; }

  // Whole-run throughput timeline in kTimelineBucket buckets (never reset by
  // Measure), for scenario drivers that stitch phases together.
  const std::vector<double>& timeline_buckets() const { return timeline_.buckets(); }

 private:
  // Opens a measure window (zeroes what it reports); Collect closes it.
  void ResetMetrics();
  ExperimentResult Collect(SimDuration measure_window);
  // The image a joining/backfilling replica installs: full database pages at
  // the freshest version the cluster can donate (never below the prune line).
  ClusterCheckpoint BuildCheckpointImage() const;
  // Appends the next replica, built from `rc` on seed stream `rng`, and its
  // proxy, with the checkpoint source when checkpoint joins are on.
  Proxy* AddReplicaAndProxy(const ReplicaConfig& rc, Rng rng);
  // The AddReplica verb: appends a replica that joins through recovery.
  void JoinNewReplica(Bytes memory);
  // One prune tick: sample certifier-memory HWMs, then prune the conflict
  // index at the GSI-safe point and the log below the safe floor.
  void AutoPrune();
  void SampleCertifierHwm();
  // Throws std::logic_error naming `verb` unless ProxyConfig::retry is on.
  void RequireRetry(const char* verb) const;

  const Workload* workload_;
  std::string mix_name_;
  std::string policy_name_;
  ClusterConfig config_;
  Simulator sim_;
  Certifier certifier_;
  // Shared proxy->certifier channel: same-tick certification/pull arrivals
  // from ANY replica share one simulator event (group-commit batching).
  CertifierChannel certifier_channel_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  std::unique_ptr<LoadBalancer> balancer_;
  MalbBalancer* malb_ = nullptr;  // non-owning view when the balancer is MALB
  std::unique_ptr<ClientSource> clients_;
  // Seed stream for replicas added at runtime; forked from the root LAST so
  // pre-churn seed streams (replicas, clients) are unchanged.
  Rng topology_rng_{0};
  // Fault/retry seed stream, forked from the root AFTER topology_rng_ and
  // ONLY when faults or retries are armed, so fault-capable builds with the
  // knobs off replay the pre-fault seed streams bit for bit.
  Rng faults_rng_{0};

  // --- Certifier failover bookkeeping --------------------------------------
  SimTime cert_down_mark_ = 0;        // crash instant (or window start while down)
  double cert_downtime_accum_s_ = 0.0;
  bool awaiting_failover_commit_ = false;
  SimTime failover_at_ = 0;
  double failover_recovery_accum_s_ = 0.0;

  // Measurement state.
  uint64_t committed_ = 0;
  uint64_t aborted_ = 0;
  // Window-scoped certifier-memory high-water marks (see ExperimentResult)
  // and the lifetime count of effective log prunes.
  uint64_t log_chunks_hwm_ = 0;
  uint64_t arena_bytes_hwm_ = 0;
  uint64_t conflict_rows_hwm_ = 0;
  uint64_t prunes_ = 0;
  PercentileTracker responses_;  // client-visible response times of the window
  // True from ResetMetrics to Collect: response samples are kept only while
  // a window is open, so a driver that only Advances stores none.
  bool measuring_ = false;
  TimeSeries timeline_;
  bool started_ = false;
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_CLUSTER_H_
