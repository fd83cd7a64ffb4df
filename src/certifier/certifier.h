// The certifier: global commit order, durability, and update propagation.
//
// Tashkent's certifier [EDP06] receives writesets from replica proxies,
// detects write-write conflicts, appends successful writesets to a persistent
// log (uniting durability with ordering, so replicas never fsync), and
// responds with both the verdict and any remote writesets the replica has not
// yet applied — propagation piggybacks on certification. Two auxiliary
// triggers keep idle or lagging replicas current: proxies pull every 500 ms,
// and the certifier prods replicas more than 25 commits behind.
//
// The certifier here is a passive component: the cluster wiring imposes
// network latency (src/certifier/channel.h, which also batches same-tick
// arrivals into one event — the group-commit analogue) and invokes it;
// replication of the certifier itself (leader + 2 backups in the paper) is
// modeled by the configured latency.
//
// Hot-path layout: the log is a chunked stable-address store
// (src/gsi/writeset_store.h) — appending moves the writeset into the current
// chunk and re-homes any spilled row buffer into the per-cluster arena, and
// responses describe pending remote writesets as a version range instead of
// a heap-allocated pointer list, so certification performs no allocations
// per transaction.
#ifndef SRC_CERTIFIER_CERTIFIER_H_
#define SRC_CERTIFIER_CERTIFIER_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_callback.h"
#include "src/gsi/certification.h"
#include "src/gsi/writeset.h"
#include "src/gsi/writeset_store.h"

namespace tashkent {

struct CertifierConfig {
  // One-way proxy->certifier network latency (LAN).
  SimDuration network_one_way = Micros(120);
  // Certifier processing (conflict test + log append + group commit share).
  SimDuration certify_cost = Micros(200);
  // Replicas lagging by more than this many commits get prodded.
  uint64_t prod_threshold = 25;
  // Idle proxies pull updates at this period.
  SimDuration pull_period = Millis(500);
  // Per-replica dedup ring size (power of two). Must exceed the deepest
  // retry/duplicate pile-up a proxy can have outstanding — with the default
  // gatekeeper bound of 8 in-flight writes, 128 leaves a wide margin.
  uint32_t dedup_window = 128;
};

// Sentinel txn_seq for requests that are never resent: no dedup lookup or
// record happens. Proxies pass it while their retry protocol is unarmed;
// direct callers (benchmarks, log replays) pass it by default.
inline constexpr uint64_t kNoTxnSeq = UINT64_MAX;

struct CertifyResult {
  bool committed = false;
  Version commit_version = 0;
  // Remote writesets (commit versions the replica has not applied yet,
  // excluding its own writeset) that it must apply before committing
  // locally. A dense range into the certifier log; read via LogEntry().
  WritesetRange remote;
};

class Certifier {
 public:
  // Prod notification for a lagging replica (installed once by the cluster;
  // invoked on the certification hot path whenever a laggard is detected).
  using ProdCallback = InlineCallback<void(ReplicaId), 48>;

  explicit Certifier(CertifierConfig config = {}) : config_(config) {}

  Certifier(const Certifier&) = delete;
  Certifier& operator=(const Certifier&) = delete;

  // Certifies `ws` from a replica whose last applied version is
  // `applied_version`. On success the writeset is appended to the log with the
  // next commit version. Either way, pending remote writesets are returned.
  //
  // Idempotence: when `txn_seq` is given (a per-proxy monotonically increasing
  // transaction sequence), a repeat of an already-decided (replica, txn_seq)
  // re-serves the recorded verdict from the dedup window instead of
  // re-certifying — a retried or duplicated request can never double-commit.
  // The kNoTxnSeq default skips the window entirely.
  CertifyResult Certify(Writeset ws, ReplicaId replica, Version applied_version,
                        uint64_t txn_seq = kNoTxnSeq);

  // A duplicate whose original response the proxy already consumed: the
  // request still reached the certifier, which re-serves (and here merely
  // accounts) the recorded verdict. Returns false when the window holds no
  // record for (replica, txn_seq).
  bool ResolveDuplicate(ReplicaId replica, uint64_t txn_seq);

  // A pull request (periodic, or in response to a prod): returns the range of
  // writesets the replica has not applied yet.
  WritesetRange Pull(ReplicaId replica, Version applied_version);

  // --- Warm-standby failover with epoch fencing ------------------------------
  // The paper runs the certifier as a leader with two synchronous backups;
  // the simulation keeps one state object and models the failure protocol
  // around it: Crash() stops the primary serving (requests go unanswered and
  // sender timeouts drive retries), Failover() promotes the warm standby —
  // restoring the shipped image (version counter, log head, dedup window
  // footprint) and FENCING the old epoch, so any request addressed to the
  // deposed primary's epoch is refused and resent against the new one.
  // StandbyImage mirrors every committed state change O(1) at commit time;
  // Failover asserts the image matches, which is the warm-standby contract.
  struct StandbyImage {
    uint64_t epoch = 1;
    Version next_version = 1;
    Version log_head = 0;
    uint64_t certified = 0;
    uint64_t aborted = 0;
    uint64_t dedup_records = 0;
  };
  void Crash();
  void Failover();
  bool serving() const { return serving_; }
  uint64_t epoch() const { return epoch_; }
  // Crashes, failovers and retries re-served from the dedup window since the
  // last window opened (ResetFaultStats zeroes them).
  uint64_t crashes() const { return crashes_; }
  uint64_t failovers() const { return failovers_; }
  uint64_t dedup_hits() const { return dedup_hits_; }
  void ResetFaultStats() {
    crashes_ = 0;
    failovers_ = 0;
    dedup_hits_ = 0;
  }
  const StandbyImage& standby_image() const { return standby_; }

  // Registers the prod callback: invoked with the replica id when it falls
  // more than prod_threshold commits behind the log head.
  void SetProdCallback(ProdCallback cb) { prod_cb_ = std::move(cb); }

  Version head_version() const { return next_version_ - 1; }
  // The committed writeset at version `v` (1..head, not yet pruned).
  const Writeset& LogEntry(Version v) const { return log_.Get(v); }
  // The interest mask built for entry `v` at append time (same domain as
  // LogEntry). Update-filtering fast path: src/storage/table_mask.h.
  const TableMask& LogMask(Version v) const { return log_.MaskOf(v); }
  // Chunk skip-scan over [from, hi] against a subscription mask; see
  // WritesetLog::SkipUnwanted for the proof obligations.
  Version SkipUnwanted(Version from, Version hi, const TableMask& sub) const {
    return log_.SkipUnwanted(from, hi, sub);
  }
  size_t log_size() const { return log_.size(); }
  const CertifierConfig& config() const { return config_; }

  uint64_t certified_count() const { return certified_; }
  uint64_t aborted_count() const { return aborted_; }

  // Compacts the conflict index: forgets rows whose last write is at or
  // below `floor`. Precondition: no certification that will still be checked
  // has a snapshot below `floor` — every replica having APPLIED past it is
  // not enough, because a certification parked before that (in flight or
  // backing off) still carries its older snapshot. The cluster's auto-pruner
  // passes the GSI-safe point: the minimum over proxies of the applied
  // version and every parked certification's snapshot.
  void PruneBelow(Version floor) { checker_.PruneBelow(floor); }
  size_t conflict_rows() const { return checker_.tracked_rows(); }

  // --- Decision recorder (test instrument) ----------------------------------
  // One certification decision as the conflict check made it: the items, the
  // snapshot, the log head the check ran against, and the verdict. A GSI
  // oracle replays these against the committed history: a commit at head+1
  // must have no overlapping writer in (snapshot, head], an abort must have
  // one. Dedup re-serves are not decisions and are not recorded.
  struct Decision {
    std::vector<WritesetItem> items;
    Version snapshot = 0;
    Version head = 0;
    bool committed = false;
    Version commit_version = 0;  // 0 when aborted
  };
  // Appends every later decision to `*sink` (nullptr stops recording). Off by
  // default; recording changes no verdict, version, or timing.
  void RecordDecisions(std::vector<Decision>* sink) { decisions_ = sink; }

  // Prunes the log itself: drops entries with version <= floor, recycling
  // their chunks and arena blocks. Caller contract: floor must stay at or
  // below every replica's durable applied version AND the version of any
  // checkpoint install in flight (an installing replica resumes reading at
  // install-version + 1). The cluster's auto-pruner computes exactly that
  // floor; replicas joining past the floor install a checkpoint image instead
  // of replaying the (gone) prefix.
  void PruneLogBelow(Version floor) { log_.PruneBelow(floor, arena_); }
  Version log_pruned_below() const { return log_.pruned_below(); }
  size_t log_chunk_count() const { return log_.chunk_count(); }
  const WritesetArena& arena() const { return arena_; }

 private:
  // One decided (replica, txn_seq) verdict, parked in a direct-mapped ring
  // indexed by txn_seq & (window - 1). Sequences are per-proxy monotonic and
  // live retries span far less than the window, so an occupied slot whose seq
  // differs is always an expired record, never a collision of live requests.
  struct DedupEntry {
    uint64_t seq = kNoTxnSeq;
    bool committed = false;
    Version commit_version = 0;
  };

  WritesetRange CollectSince(Version applied_version) const {
    return WritesetRange{applied_version + 1, head_version()};
  }
  void NoteReplicaVersion(ReplicaId replica, Version applied_version);
  void MaybeProdLaggards();
  const DedupEntry* DedupLookup(ReplicaId replica, uint64_t txn_seq) const;
  void DedupRecord(ReplicaId replica, uint64_t txn_seq, const CertifyResult& result);
  // O(1) synchronous mirror of the committed state into the standby image
  // (the log itself is synchronously replicated in the paper's deployment).
  void ShipToStandby();

  CertifierConfig config_;
  ConflictChecker checker_;
  WritesetLog log_;
  WritesetArena arena_;
  Version next_version_ = 1;
  uint64_t certified_ = 0;
  uint64_t aborted_ = 0;
  std::vector<Version> replica_version_;  // last reported applied version
  std::vector<bool> prod_outstanding_;
  ProdCallback prod_cb_;
  // Per-replica dedup rings, sized lazily on first sequenced request.
  std::vector<std::vector<DedupEntry>> dedup_;
  uint64_t dedup_hits_ = 0;
  uint64_t dedup_records_ = 0;
  // Failover state.
  bool serving_ = true;
  uint64_t epoch_ = 1;
  uint64_t crashes_ = 0;
  uint64_t failovers_ = 0;
  StandbyImage standby_;
  std::vector<Decision>* decisions_ = nullptr;
};

}  // namespace tashkent

#endif  // SRC_CERTIFIER_CERTIFIER_H_
