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
// each admitted transaction is parked once, in a free-listed slab on the
// proxy (its type and the transaction-done continuation), and everything
// below names it by that slot: the gatekeeper queue, the replica's
// execution-done continuation, the parked certification and the commit's
// wait on the applier. A certification round trip parks its writeset in a
// second slab, so the simulator event carries only {proxy, txn_seq, slot,
// generation}; round trips travel through the cluster's CertifierChannel,
// which batches same-tick arrivals into one event (group commit); and the
// remote-apply queue is a pair of version cursors into the certifier log
// instead of a pointer deque — the pending writesets are always a dense
// version range.
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
#include "src/storage/table_mask.h"

namespace tashkent {

// Growth of the backoff between certifier attempts (see RetryPolicy).
inline constexpr double kBackoffFactor = 2.0;
// One certifier round trip (request, certification, response), for a
// certification and a pull alike.
inline constexpr SimDuration kCertificationRtt = 2 * kNetworkOneWay + kCertifyCost;

// Retry/timeout/backoff policy for the certifier round trips. Every round
// trip is sequenced and generation-guarded either way; enabling the policy
// adds only a timeout event per attempt (with backoff resends) and certifier
// dedup records. Disabled by default: with no loss to recover from, that
// saves the events and records, and no RNG draw is spent. The cluster arms
// it whenever a FaultPlan is in play, and CrashCertifier/PartitionProxy
// refuse to run without it.
struct RetryPolicy {
  bool enabled = false;
  // Response deadline per attempt; must exceed kCertificationRtt (440 us) or
  // every attempt times out. A static_assert in proxy.cc holds the default to it.
  SimDuration timeout = Millis(2);
  // Exponential backoff between attempts: base * kBackoffFactor^(attempt-1),
  // capped at `max`, then scaled by a uniform jitter in [1-jitter, 1+jitter]
  // drawn from the proxy's seeded retry stream (never wall clock —
  // scripts/lint_determinism.py and its self-test pin that).
  SimDuration backoff_base = Micros(500);
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
};

// Replica lifecycle as the proxy tracks it. docs/OPERATIONS.md ("Replica
// lifecycle") draws the states and gives the (state, event) table that each
// handler's one guard follows. The states that pull and apply come first, so
// that guard is one compare (`> kRecovering` means "neither").
enum class ReplicaLifecycle {
  kUp,          // serving work, applying remote writesets as they arrive
  kRecovering,  // replaying the certifier log; rejects client work until caught up
  kInstalling,  // a checkpoint image is in flight; the replay of (image, head] follows
  kDown,        // fail-stopped: rejects work, answers no prod, pulls and applies nothing
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
  uint64_t rejected = 0;          // submissions refused while not kUp
  uint64_t replay_applied = 0;    // writesets applied during recovery replay
  uint64_t replay_filtered = 0;   // writesets the subscription filtered during replay
  uint64_t recoveries = 0;        // recoveries completed (kRecovering -> kUp)
  double recovery_time_s = 0.0;   // summed replay durations of those recoveries
  // --- checkpoint join -------------------------------------------------------
  uint64_t joins = 0;              // JoinAsNew lifecycles completed (subset of recoveries)
  double join_time_s = 0.0;        // summed join durations (the join-latency metric)
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
  // built per submission (hot) and parked with the transaction; the capacity
  // holds the cluster's dispatch continuation {cluster, replica, token, type}.
  using TxnDone = InlineCallback<void(bool committed), 24>;

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

  // Seeds the backoff jitter of the retry protocol that ProxyConfig::retry
  // enables (the cluster forks the stream from its fault stream). Every
  // round trip already carries a per-proxy transaction sequence, a response
  // generation guard, and the sending epoch for failover fencing; enabled
  // retry adds a timeout event per attempt and hands the sequence to the
  // certifier as its dedup key.
  void ArmRetry(Rng rng) { retry_rng_ = rng; }
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
  // means "apply everything" (filtering off). The pump reads the subscription
  // at every probe, so a change takes effect at the next pending writeset.
  void SetSubscription(std::optional<TableMask> tables) { subscription_ = tables; }
  const std::optional<TableMask>& subscription() const { return subscription_; }

  // --- Failure injection / lifecycle ----------------------------------------
  // The `crash` and `recover` rows of docs/OPERATIONS.md's lifecycle table.
  // Recover throws std::runtime_error when the log is pruned past the durable
  // prefix and no checkpoint source is installed. JoinAsNew, for a replica
  // added at runtime, is `crash` then `recover` from an empty database.
  void Crash();
  void Recover();
  void JoinAsNew();

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
    return lifecycle_ == ReplicaLifecycle::kInstalling ? std::optional(installing_version_)
                                                        : std::nullopt;
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
  // Executes the admitted transaction parked in slot `txn` of txns_.
  void RunAdmitted(uint32_t txn);
  // Counts the outcome, frees slot `txn` and its gatekeeper slot (running
  // the next queued transaction), then answers the client.
  void FinishTransaction(bool committed, uint32_t txn);
  void CertifyAndCommit(ExecOutcome outcome, uint32_t txn);
  // Starts the asynchronous checkpoint install (state transfer) that Recover
  // chose; pulls the (version, head] delta once the image lands.
  void InstallCheckpoint();
  // The post-certification completion: enqueue remotes, pump, wait for the
  // predecessor prefix, finish the transaction.
  void HandleCertifyResult(const CertifyResult& result, uint32_t txn);
  // Frees a decided (or abandoned) certification's slot and returns the
  // transaction's slot in txns_.
  uint32_t ReleaseCert(uint32_t slot);
  void PullUpdates();

  // --- Certifier round trips -----------------------------------------------
  // One attempt: a channel round trip carrying (slot, generation, txn_seq),
  // plus a timeout event when retry is enabled. `slot` indexes the parked
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
  // base * kBackoffFactor^(attempt-1), capped, jittered from the seeded stream.
  SimDuration BackoffDelay(int attempt);

  // --- Serial writeset applier --------------------------------------------
  // Remote writesets apply strictly in commit order through one queue, so
  // overlapping certification responses and pulls never apply a writeset
  // twice and the replica state is always a consistent log prefix. The queue
  // is a dense version range [apply_next_, apply_hi_] into the certifier
  // log (responses only ever extend the high end).
  void EnqueueRemotes(WritesetRange remotes);
  // The one apply loop, for an up replica and for recovery replay alike. Up,
  // it submits the first wanted writeset and advances the applied version
  // per entry; recovering, it stages every pending writeset into one
  // disk/CPU batch and advances the applied version once, when the batch
  // lands. Either way the replica's state stays a prefix of the certifier
  // log, projected onto its subscription.
  void PumpApplier();
  // The update-filtering decision for log entry `ws`, the pump's one wanted
  // probe: everything is wanted without a subscription; otherwise the entry's
  // mask meets the subscription (≡ `ws.TouchesAny(*subscription_)`, see
  // src/storage/table_mask.h).
  bool Wanted(const Writeset& ws) const {
    return !subscription_ ||
           Intersects(certifier_->LogMask(ws.commit_version), *subscription_);
  }
  bool ApplyQueueEmpty() const { return apply_next_ > apply_hi_; }
  // Recovery exit check: once the replay queue has drained, either pull the
  // delta that committed meanwhile or, if caught up with the log head, flip
  // to kUp and record the recovery lag.
  void MaybeFinishRecovery();
  // Commit continuation parked until the applier catches up; it captures
  // {proxy, commit version, transaction slot}.
  using AppliedHook = InlineCallback<void(), 24>;
  // Runs `fn` once applied_version_ >= target.
  void WaitApplied(Version target, AppliedHook fn);
  void AdvanceApplied(Version v);

  // An admitted transaction, from SubmitTransaction to FinishTransaction.
  struct Admitted {
    const TxnType* type = nullptr;
    TxnDone done;
  };

  // Payload of an in-flight certification round trip, parked so the
  // simulator event captures only {this, txn_seq, slot, generation} — the
  // Arrival's 24 bytes.
  struct PendingCert {
    Writeset ws;
    uint32_t txn = kNilSlot;  // the transaction's slot in txns_
    uint64_t txn_seq = 0;     // per-proxy monotonic; the dedup key with retry on
    uint64_t sent_epoch = 0;  // certifier epoch the last attempt targeted
    int attempts = 0;
    Simulator::EventId timeout = Simulator::kInvalidEvent;  // retry only
  };

  Simulator* sim_;
  Replica* replica_;
  Certifier* certifier_;
  ProxyConfig config_;
  Gatekeeper gatekeeper_;
  std::unique_ptr<CertifierChannel> owned_channel_;  // standalone proxies only
  CertifierChannel* channel_;
  Slab<Admitted> txns_;
  Slab<PendingCert> pending_certs_;
  Version applied_version_ = 0;
  SimTime last_certifier_contact_ = 0;
  bool pull_in_progress_ = false;
  // --- Round-trip state -----------------------------------------------------
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
  std::optional<TableMask> subscription_;
  ProxyStats stats_;

  Version apply_next_ = 1;  // next log version the applier will look at
  Version apply_hi_ = 0;    // highest version enqueued (old max_enqueued_)
  bool applying_ = false;     // an apply batch (one writeset when up) is in flight
  bool pump_active_ = false;  // re-entrancy guard
  ReplicaLifecycle lifecycle_ = ReplicaLifecycle::kUp;
  SimTime recovery_started_ = 0;
  uint64_t crash_epoch_ = 0;  // invalidates callbacks from before a crash
  CheckpointSource checkpoint_source_;
  Version installing_version_ = 0;   // the image version while kInstalling (prune-floor pin)
  bool join_pending_ = false;        // JoinAsNew was requested; counted at rejoin
  struct Waiter {
    Version target;
    AppliedHook fn;
  };
  std::vector<Waiter> waiters_;
};

}  // namespace tashkent

#endif  // SRC_PROXY_PROXY_H_
