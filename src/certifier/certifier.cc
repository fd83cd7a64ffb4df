#include "src/certifier/certifier.h"

#include <cassert>

namespace tashkent {

CertifyResult Certifier::Certify(Writeset ws, ReplicaId replica, Version applied_version,
                                 uint64_t txn_seq) {
  assert(serving_ && "a crashed certifier cannot serve; callers must check serving()");
  NoteReplicaVersion(replica, applied_version);
  CertifyResult result;
  result.remote = CollectSince(applied_version);

  if (txn_seq != kNoTxnSeq) {
    if (const DedupEntry* hit = DedupLookup(replica, txn_seq)) {
      // Retry of a decided transaction: re-serve the recorded verdict; never
      // re-run the conflict check or burn a version. The remote range is
      // recomputed fresh (it may now include the txn's own commit version —
      // applying one's own writeset from the log is idempotent page writes).
      ++dedup_hits_;
      result.committed = hit->committed;
      result.commit_version = hit->commit_version;
      MaybeProdLaggards();
      return result;
    }
  }

  const bool certified = checker_.Check(ws);
  if (decisions_ != nullptr) {
    decisions_->push_back(Decision{{ws.items.begin(), ws.items.end()},
                                   ws.snapshot_version,
                                   head_version(),
                                   certified,
                                   certified ? next_version_ : 0});
  }
  if (certified) {
    ws.commit_version = next_version_++;
    checker_.Record(ws);
    result.committed = true;
    result.commit_version = ws.commit_version;
    ++certified_;
    log_.Append(std::move(ws), arena_);
  } else {
    ++aborted_;
  }
  if (txn_seq != kNoTxnSeq) {
    DedupRecord(replica, txn_seq, result);
  }
  ShipToStandby();
  MaybeProdLaggards();
  return result;
}

const Certifier::DedupEntry* Certifier::DedupLookup(ReplicaId replica,
                                                    uint64_t txn_seq) const {
  if (replica >= dedup_.size() || dedup_[replica].empty()) {
    return nullptr;
  }
  const std::vector<DedupEntry>& ring = dedup_[replica];
  const DedupEntry& e = ring[txn_seq & (ring.size() - 1)];
  return e.seq == txn_seq ? &e : nullptr;
}

void Certifier::DedupRecord(ReplicaId replica, uint64_t txn_seq,
                            const CertifyResult& result) {
  if (replica >= dedup_.size()) {
    dedup_.resize(replica + 1);
  }
  std::vector<DedupEntry>& ring = dedup_[replica];
  if (ring.empty()) {
    ring.resize(kDedupWindow);  // cold path: first sequenced request from this proxy
  }
  ring[txn_seq & (ring.size() - 1)] = DedupEntry{txn_seq, result.committed,
                                                 result.commit_version};
  ++dedup_records_;
}

bool Certifier::ResolveDuplicate(ReplicaId replica, uint64_t txn_seq) {
  const DedupEntry* hit = DedupLookup(replica, txn_seq);
  if (hit == nullptr) {
    return false;
  }
  ++dedup_hits_;
  return true;
}

void Certifier::ShipToStandby() {
  standby_.next_version = next_version_;
  standby_.log_head = head_version();
  standby_.certified = certified_;
  standby_.aborted = aborted_;
  standby_.dedup_records = dedup_records_;
}

void Certifier::Crash() {
  if (!serving_) {
    return;
  }
  serving_ = false;
  ++crashes_;
}

void Certifier::Failover() {
  // Promote the warm standby. The image must match the primary's last
  // committed state — the standby is synchronously replicated — so restoring
  // it is a no-op on the data and the assert is the contract check. What
  // changes is the epoch: requests fenced at the old epoch are refused and
  // resent by their proxies against the new primary.
  assert(standby_.next_version == next_version_ && standby_.log_head == head_version() &&
         standby_.certified == certified_ && standby_.dedup_records == dedup_records_ &&
         "warm standby lost sync with the primary");
  next_version_ = standby_.next_version;
  certified_ = standby_.certified;
  aborted_ = standby_.aborted;
  serving_ = true;
  ++epoch_;
  ++failovers_;
  standby_.epoch = epoch_;
}

WritesetRange Certifier::Pull(ReplicaId replica, Version applied_version) {
  NoteReplicaVersion(replica, applied_version);
  if (replica < prod_outstanding_.size()) {
    prod_outstanding_[replica] = false;
  }
  return CollectSince(applied_version);
}

void Certifier::NoteReplicaVersion(ReplicaId replica, Version applied_version) {
  if (replica >= replica_version_.size()) {
    replica_version_.resize(replica + 1, 0);
    prod_outstanding_.resize(replica + 1, false);
  }
  if (replica_version_[replica] < applied_version) {
    replica_version_[replica] = applied_version;
  }
}

void Certifier::MaybeProdLaggards() {
  if (!prod_cb_) {
    return;
  }
  const Version head = head_version();
  for (ReplicaId r = 0; r < replica_version_.size(); ++r) {
    if (!prod_outstanding_[r] && head > replica_version_[r] &&
        head - replica_version_[r] > kProdThreshold) {
      prod_outstanding_[r] = true;
      prod_cb_(r);
    }
  }
}

}  // namespace tashkent
