// The replication-middleware proxy attached to each replica (Figure 1).
//
// The proxy appears as the database to clients and as a client to the
// database. It performs, per Section 4:
//   * Gatekeeper admission control;
//   * local execution of transactions on its replica;
//   * certification of update transactions at the certifier (one network
//     round trip), applying the returned remote writesets *before* the local
//     commit so every replica's state stays a consistent prefix of the
//     certifier log;
//   * periodic pulls (500 ms) when idle and pull-on-prod when the certifier
//     notices the replica lagging;
//   * update filtering: when the balancer installs a table subscription, the
//     proxy forwards only writesets touching subscribed tables to its replica
//     (version bookkeeping still advances past filtered writesets).
//
// Hot-path layout (docs/ARCHITECTURE.md, "Hot path & performance model"):
// a certification round trip parks its payload (the writeset + the
// transaction-done continuation) in a free-listed slab on the proxy, so the
// simulator event carries only {proxy, txn_seq, slot, generation}; round
// trips travel through the cluster's CertifierChannel, which batches
// same-tick arrivals into one event (group commit); and the remote-apply
// queue is a pair of version cursors into the certifier log instead of a
// pointer deque — the pending writesets are always a dense version range.
// No allocations per transaction.
#ifndef SRC_PROXY_PROXY_H_
#define SRC_PROXY_PROXY_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/certifier/certifier.h"
#include "src/certifier/channel.h"
#include "src/common/inline_callback.h"
#include "src/common/rng.h"
#include "src/common/slab_list.h"
#include "src/proxy/gatekeeper.h"
#include "src/replica/replica.h"
#include "src/storage/checkpoint.h"
#include "src/storage/relation_set.h"

namespace tashkent {

// Retry/timeout/backoff policy for the certifier round trips. Every round
// trip is sequenced and generation-guarded either way; enabling the policy
// adds only a timeout event per attempt (with backoff resends) and certifier
// dedup records. Disabled by default: with no loss to recover from, that
// saves the events and records, and no RNG draw is spent. The cluster arms
// it whenever a FaultPlan is in play, and CrashCertifier/PartitionProxy
// refuse to run without it.
struct RetryPolicy {
  bool enabled = false;
  // Response deadline per attempt; must exceed the certification RTT
  // (440 us at the default latencies) or every attempt times out.
  SimDuration timeout = Millis(2);
  // Exponential backoff between attempts: base * factor^(attempt-1), capped
  // at `max`, then scaled by a uniform jitter in [1-jitter, 1+jitter] drawn
  // from the proxy's seeded retry stream (never wall clock —
  // scripts/lint_determinism.py and its self-test pin that).
  SimDuration backoff_base = Micros(500);
  double backoff_factor = 2.0;
  SimDuration backoff_max = Millis(50);
  double jitter = 0.2;
  // A certification retries until it is decided (or its replica goes down):
  // writes queue behind the gatekeeper's admission bound, which is the
  // degraded-mode backpressure (at most max_in_flight certifications can
  // pile up per proxy while the certifier is away). No client is told
  // "aborted" while a copy of its write may still certify.
};

struct ProxyConfig {
  // Gatekeeper limit on transactions concurrently inside the database.
  int max_in_flight = 8;
  // Certifier-path retry protocol (see RetryPolicy). The Cluster forks the
  // jitter stream from its fault stream and calls ArmRetry when enabled.
  RetryPolicy retry;
  // Update-filtering fast path (src/storage/table_mask.h): decide "wanted"
  // with the log entry's TableMask against the cached subscription mask, and
  // skip whole certifier-log chunks whose union mask misses the
  // subscription. Filtering DECISIONS are identical either way, so this knob
  // only freezes the TouchesAny cost model for differential tests and the
  // filter-storm perf baseline.
  bool mask_filtering = true;
};

// Replica lifecycle as the proxy tracks it (docs/OPERATIONS.md diagrams it):
//   kUp         — serving work, applying remote writesets as they arrive;
//   kDown       — fail-stopped: new submissions are rejected;
//   kRecovering — replaying the certifier's committed-writeset log; still
//                 rejects client work until caught up, then flips to kUp.
enum class ReplicaLifecycle {
  kUp,
  kDown,
  kRecovering,
};

struct ProxyStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;        // certification (write-write) aborts
  uint64_t read_only = 0;
  uint64_t writesets_applied = 0;
  uint64_t writesets_filtered = 0;
  // Of writesets_filtered: decided by whole-chunk skip-scan without touching
  // the entry (mask fast path engagement gauge; not a results metric).
  uint64_t mask_skipped = 0;
  uint64_t pulls = 0;
  uint64_t prods = 0;
  // --- churn -----------------------------------------------------------------
  uint64_t rejected = 0;          // submissions refused while down/recovering
  uint64_t replay_applied = 0;    // writesets applied during recovery replay
  uint64_t replay_filtered = 0;   // writesets the subscription filtered during replay
  uint64_t recoveries = 0;        // recoveries completed (kRecovering -> kUp)
  double recovery_time_s = 0.0;   // summed replay durations of those recoveries
  // --- checkpoint join -------------------------------------------------------
  uint64_t joins = 0;              // JoinAsNew lifecycles completed (subset of recoveries)
  double join_time_s = 0.0;        // summed join durations (the join-latency metric)
  uint64_t checkpoint_installs = 0;  // checkpoint images installed (join or backfill)
  // --- faults / retry / failover --------------------------------------------
  uint64_t cert_timeouts = 0;    // certification attempts that hit the deadline
  uint64_t cert_retries = 0;     // certification resubmissions sent
  uint64_t pull_timeouts = 0;    // pull attempts that hit the deadline
  uint64_t pull_retries = 0;     // pull resubmissions sent
  uint64_t fenced = 0;           // stale-epoch responses refused; resent to the new primary
  uint64_t stale_responses = 0;  // duplicate/late responses discarded (txn already decided)
  uint64_t gave_up = 0;          // always 0 (retries never give up); perfbench still reads it
  uint64_t write_queue_hwm = 0;  // peak certifications parked awaiting response/retry
};

class Proxy {
 public:
  // Result of one transaction as seen by the client: true = committed. One is
  // built per submission (hot); the capacity holds the cluster's dispatch
  // wrapper around the client pool's retry continuation.
  using TxnDone = InlineCallback<void(bool committed), 96>;

  // `channel` is the cluster-shared certifier channel; when null (standalone
  // unit tests) the proxy owns a private batching one.
  Proxy(Simulator* sim, Replica* replica, Certifier* certifier, ProxyConfig config = {},
        CertifierChannel* channel = nullptr);

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  // Dispatch entry point used by the load balancer.
  void SubmitTransaction(const TxnType& type, TxnDone done);

  // Starts the periodic 500 ms update pull.
  void StartDaemons();

  // Arms the retry/timeout/backoff protocol with `policy` and a seeded
  // jitter stream (the cluster forks it from its fault stream). Every
  // round trip already carries a per-proxy transaction sequence, a response
  // generation guard, and the sending epoch for failover fencing; arming
  // adds a timeout event per attempt and hands the sequence to the
  // certifier as its dedup key.
  void ArmRetry(const RetryPolicy& policy, Rng rng);
  bool retry_armed() const { return retry_armed_; }
  // The newest certifier epoch this proxy has learned (via fenced responses).
  uint64_t known_epoch() const { return known_epoch_; }
  // Update transactions committed to clients over the proxy's whole life
  // (never reset): the invariant `certified == client-committed exactly
  // once` that the faults campaign gates on compares this against the
  // certifier's certified_count.
  uint64_t lifetime_update_commits() const { return lifetime_update_commits_; }

  // Certifier prod: the replica is behind; schedule an immediate pull.
  void OnProd();

  // Installs (or clears) the update-filtering subscription. An empty optional
  // means "apply everything" (filtering off). Rebuilds the cached
  // subscription mask — the ONLY place the mask is rebuilt, which is why the
  // wanted-probe can be a bare word-wise AND. Throws std::out_of_range, and
  // changes nothing, for a relation id past TableMask::kBits.
  void SetSubscription(std::optional<RelationSet> tables);
  const std::optional<RelationSet>& subscription() const {
    return subscription_;
  }

  // --- Failure injection / lifecycle ----------------------------------------
  // Crash: fail-stop — the replica stops serving and in-flight work is
  // dropped (clients see aborts and retry elsewhere).
  //
  // Recover: begins recovery from the crashed state. The cache restarts cold;
  // the durable state is the certifier log prefix at applied_version_. When
  // the log still covers that prefix, the proxy REPLAYS the committed-
  // writeset log from there (through its update-filtering subscription, which
  // decides how much must actually be applied). When the prefix has been
  // pruned away — or the replica is a fresh joiner — it first INSTALLS a
  // checkpoint image at version V from the cluster's checkpoint source and
  // replays only (V, head]. Either way it rejoins — becomes available — once
  // caught up with the log head; the elapsed time is the recovery lag.
  // A recovery that needs pruned versions with no checkpoint source installed
  // throws std::runtime_error (the legacy replay-from-0 join is only legal
  // while the log is complete).
  //
  // JoinAsNew: lifecycle entry point for a replica added at runtime — a
  // recovery starting from version 0 (an empty database), which the
  // checkpoint source (when installed) turns into a state transfer whose cost
  // is independent of cluster age.
  void Crash();
  void Recover();
  void JoinAsNew() {
    lifecycle_ = ReplicaLifecycle::kDown;
    join_pending_ = true;
    Recover();
  }

  ReplicaLifecycle lifecycle() const { return lifecycle_; }
  bool available() const { return lifecycle_ == ReplicaLifecycle::kUp; }

  // --- Checkpoint source -----------------------------------------------------
  // Installed by the cluster when checkpoint joins are enabled: returns the
  // image a joining/backfilling replica should install. Cold path (a join or
  // a backfill), so a plain std::function is fine. When absent, joins fall
  // back to the legacy full-log replay.
  using CheckpointSource = std::function<ClusterCheckpoint()>;
  void SetCheckpointSource(CheckpointSource source) {
    checkpoint_source_ = std::move(source);
  }
  // The version of the checkpoint currently being installed, if any. An
  // install in progress pins the cluster's prune floor at this version (the
  // replica will replay (version, head] once the image lands).
  std::optional<Version> installing_checkpoint() const {
    return installing_ ? std::optional<Version>(installing_version_) : std::nullopt;
  }

  // No certification this proxy has parked (in flight or backing off, which
  // survive Crash) or will still send has a snapshot below this version: a
  // certification's snapshot is the applied version when it is sent, and the
  // applied version never decreases. The cluster prunes the conflict index at
  // the minimum over proxies (Certifier::PruneBelow). A scan of the parked
  // slots; called once per prune tick.
  Version snapshot_floor() const;

  size_t outstanding() const { return gatekeeper_.outstanding(); }
  int max_in_flight() const { return gatekeeper_.max_in_flight(); }
  // The gatekeeper's idle-set reporting (src/proxy/idle_sets.h); a balancer
  // attaches its proxies and detaches them when it goes away.
  void AttachIdleSets(IdleSets* sets, size_t index) { gatekeeper_.AttachIdleSets(sets, index); }
  void DetachIdleSets(const IdleSets* sets) { gatekeeper_.DetachIdleSets(sets); }
  const IdleSets* idle_sets() const { return gatekeeper_.idle_sets(); }
  Version applied_version() const { return applied_version_; }
  ReplicaId replica_id() const { return replica_->id(); }
  Replica& replica() { return *replica_; }
  const Replica& replica() const { return *replica_; }
  const ProxyStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = ProxyStats{};
    // The write-queue HWM is a gauge: re-seed from what is live right now so
    // a window opening mid-outage still sees the standing queue.
    stats_.write_queue_hwm = live_certs_;
  }

 private:
  void RunAdmitted(const TxnType& type, TxnDone done);
  void FinishTransaction(bool committed, const TxnDone& done);
  void CertifyAndCommit(ExecOutcome outcome, TxnDone done);
  // Starts the asynchronous checkpoint install (state transfer) that Recover
  // chose; pulls the (version, head] delta once the image lands.
  void InstallCheckpoint();
  // Drains the pending log run [apply_next_, apply_hi_] as one batched
  // disk/CPU submission (every recovery replay takes this path).
  void PumpApplierBatched();
  // The post-certification completion: enqueue remotes, pump, wait for the
  // predecessor prefix, finish the transaction.
  void HandleCertifyResult(const CertifyResult& result, TxnDone done);
  // Frees a decided (or abandoned) certification's slot and hands back its
  // transaction-done continuation.
  TxnDone ReleaseCert(uint32_t slot);
  void PullUpdates();
  SimDuration CertificationRtt() const;

  // --- Certifier round trips -----------------------------------------------
  // One attempt: a channel round trip carrying (slot, generation, txn_seq),
  // plus a timeout event when retry is armed. `slot` indexes the parked
  // payload in pending_certs_. The GENERATION guard makes every outcome
  // idempotent: the slot's generation is bumped exactly once, when the first
  // surviving response is accepted — any later copy (a duplicate, a late
  // arrival after its timeout fired, a response racing a backoff resend)
  // observes a stale generation and is discarded. Slot reuse is safe for the
  // same reason: a freed slot's generation never matches in-flight captures.
  void SendCert(uint32_t slot);
  void OnCertifyArrive(uint32_t slot, uint32_t gen, uint64_t txn_seq);
  void OnCertTimeout(uint32_t slot, uint32_t gen);
  void SendPull();
  void OnPullArrive(uint64_t pull_gen);
  void OnPullTimeout(uint64_t pull_gen);
  // base * factor^(attempt-1), capped, jittered from the seeded stream.
  SimDuration BackoffDelay(int attempt);

  // --- Serial writeset applier --------------------------------------------
  // Remote writesets apply strictly in commit order through one queue, so
  // overlapping certification responses and pulls never apply a writeset
  // twice and the replica state is always a consistent log prefix. The queue
  // is a dense version range [apply_next_, apply_hi_] into the certifier
  // log (responses only ever extend the high end).
  void EnqueueRemotes(WritesetRange remotes);
  void PumpApplier();
  // The update-filtering decision for log entry `ws`, shared by both apply
  // pumps: everything is wanted without a subscription; otherwise the mask
  // probe, or the TouchesAny reference path when mask_filtering is off.
  bool Wanted(const Writeset& ws) const {
    if (!subscription_.has_value()) {
      return true;
    }
    return config_.mask_filtering ? WantedByMask(ws) : ws.TouchesAny(*subscription_);
  }
  // The mask-probe wanted-decision (≡ `ws.TouchesAny(*subscription_)`, see
  // src/storage/table_mask.h).
  bool WantedByMask(const Writeset& ws) const {
    return Intersects(certifier_->LogMask(ws.commit_version), sub_mask_);
  }
  bool ApplyQueueEmpty() const { return apply_next_ > apply_hi_; }
  // Recovery exit check: once the replay queue has drained, either pull the
  // delta that committed meanwhile or, if caught up with the log head, flip
  // to kUp and record the recovery lag.
  void MaybeFinishRecovery();
  // Commit continuation parked until the applier catches up; carries the
  // transaction-done callback inline.
  using AppliedHook = InlineCallback<void(), 128>;
  // Runs `fn` once applied_version_ >= target.
  void WaitApplied(Version target, AppliedHook fn);
  void AdvanceApplied(Version v);

  // Payload of an in-flight certification round trip, parked so the
  // simulator event captures only {this, txn_seq, slot, generation} — the
  // Arrival's 24 bytes.
  struct PendingCert {
    Writeset ws;
    TxnDone done;
    uint64_t txn_seq = 0;     // per-proxy monotonic; the dedup key when armed
    uint64_t sent_epoch = 0;  // certifier epoch the last attempt targeted
    int attempts = 0;
    Simulator::EventId timeout = Simulator::kInvalidEvent;  // armed only
  };

  Simulator* sim_;
  Replica* replica_;
  Certifier* certifier_;
  ProxyConfig config_;
  Gatekeeper gatekeeper_;
  std::unique_ptr<CertifierChannel> owned_channel_;  // standalone proxies only
  CertifierChannel* channel_;
  Slab<PendingCert> pending_certs_;
  Version applied_version_ = 0;
  SimTime last_certifier_contact_ = 0;
  bool pull_in_progress_ = false;
  // --- Round-trip state -----------------------------------------------------
  bool retry_armed_ = false;
  RetryPolicy retry_;
  Rng retry_rng_{0};
  uint64_t next_txn_seq_ = 1;
  uint64_t known_epoch_ = 1;
  // Per-slot response generation; parallel to pending_certs_ and never
  // shrunk, so stale captures of recycled slots always mismatch.
  std::vector<uint32_t> cert_gen_;
  // Per-slot snapshot of the parked certification, kNoSnapshot once the slot
  // is freed; parallel to pending_certs_ like cert_gen_. snapshot_floor()
  // scans it.
  static constexpr Version kNoSnapshot = UINT64_MAX;
  std::vector<Version> cert_snapshot_;
  uint32_t live_certs_ = 0;  // certifications parked (in flight or backing off)
  uint64_t lifetime_update_commits_ = 0;
  // One pull outstanding at a time, guarded by its own generation counter
  // (pulls are idempotent reads — no fencing needed).
  uint64_t pull_gen_ = 0;
  int pull_attempts_ = 0;
  Simulator::EventId pull_timeout_ = Simulator::kInvalidEvent;
  std::optional<RelationSet> subscription_;
  // Cache of subscription_'s TableMask; rebuilt only in SetSubscription
  // (lazy-evaluation contract: probes read it at pump time, so it always
  // reflects the CURRENT subscription).
  TableMask sub_mask_;
  ProxyStats stats_;

  Version apply_next_ = 1;  // next log version the applier will look at
  Version apply_hi_ = 0;    // highest version enqueued (old max_enqueued_)
  bool applying_ = false;     // an async ApplyWriteset is in flight
  bool pump_active_ = false;  // re-entrancy guard
  ReplicaLifecycle lifecycle_ = ReplicaLifecycle::kUp;
  SimTime recovery_started_ = 0;
  uint64_t crash_epoch_ = 0;  // invalidates callbacks from before a crash
  CheckpointSource checkpoint_source_;
  bool installing_ = false;          // a checkpoint install is in flight
  Version installing_version_ = 0;   // its image version (prune-floor pin)
  bool join_pending_ = false;        // JoinAsNew was requested; counted at rejoin
  struct Waiter {
    Version target;
    AppliedHook fn;
  };
  std::vector<Waiter> waiters_;
};

}  // namespace tashkent

#endif  // SRC_PROXY_PROXY_H_
