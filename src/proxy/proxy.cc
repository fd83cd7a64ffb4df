#include "src/proxy/proxy.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/small_vec.h"

namespace tashkent {

Proxy::Proxy(Simulator* sim, Replica* replica, Certifier* certifier, ProxyConfig config,
             CertifierChannel* channel)
    : sim_(sim),
      replica_(replica),
      certifier_(certifier),
      config_(config),
      gatekeeper_(config.max_in_flight),
      owned_channel_(channel == nullptr
                         ? std::make_unique<CertifierChannel>(sim, /*batch_arrivals=*/true)
                         : nullptr),
      channel_(channel == nullptr ? owned_channel_.get() : channel) {}

void Proxy::SubmitTransaction(const TxnType& type, TxnDone done) {
  if (lifecycle_ != ReplicaLifecycle::kUp) {
    // The balancer avoids down/recovering replicas, but racing submissions
    // fail fast and the client retries elsewhere.
    ++stats_.rejected;
    done(false);
    return;
  }
  gatekeeper_.Admit([this, &type, done = std::move(done)]() mutable {
    RunAdmitted(type, std::move(done));
  });
}

void Proxy::Crash() {
  // Fail-stop for new work; in-flight transactions drain (their events are
  // already scheduled), which models the brief failover window in which
  // clients time out and retry elsewhere. A crash mid-recovery abandons the
  // replay (the durable applied_version_ prefix survives either way).
  lifecycle_ = ReplicaLifecycle::kDown;
  ++crash_epoch_;
  // A crash mid-install abandons the image (torn installs never advance
  // applied_version_: the completion callback is epoch-guarded). Recover()
  // restarts the state transfer from scratch.
  installing_ = false;
}

void Proxy::Recover() {
  if (lifecycle_ != ReplicaLifecycle::kDown) {
    return;
  }
  // RAM is lost: the cache restarts cold. The durable state is the certifier
  // log prefix at applied_version_, so the proxy replays the missed log
  // suffix through the ordinary pull path — filtered by the installed update
  // subscription, which is exactly the "how much must a recovering replica
  // replay" question — and rejoins only once caught up with the head
  // (MaybeFinishRecovery).
  lifecycle_ = ReplicaLifecycle::kRecovering;
  recovery_started_ = sim_->Now();
  replica_->pool().Clear();
  const Version pruned = certifier_->log_pruned_below();
  if (checkpoint_source_ && (join_pending_ || applied_version_ < pruned)) {
    // Fresh joiner, or the log no longer covers our durable prefix: state
    // transfer first, then replay only (checkpoint_version, head].
    InstallCheckpoint();
    return;
  }
  if (applied_version_ < pruned) {
    throw std::runtime_error(
        "replica " + std::to_string(replica_->id()) + ": recovery needs log versions (" +
        std::to_string(applied_version_) + ", head] but the log is pruned below " +
        std::to_string(pruned) +
        " and no checkpoint source is installed (legacy full-log replay is only "
        "legal while the log is complete; enable checkpoint joins)");
  }
  PullUpdates();
}

void Proxy::InstallCheckpoint() {
  ClusterCheckpoint ckpt = checkpoint_source_();
  if (ckpt.version <= applied_version_) {
    // Our durable prefix already covers the image (e.g. a join into a young
    // cluster); plain replay is strictly cheaper.
    PullUpdates();
    return;
  }
  installing_ = true;
  installing_version_ = ckpt.version;
  ++stats_.checkpoint_installs;
  const uint64_t epoch = crash_epoch_;
  replica_->InstallCheckpoint(ckpt, [this, epoch, v = ckpt.version]() {
    if (epoch != crash_epoch_) {
      return;  // crashed mid-install; the torn image is discarded
    }
    installing_ = false;
    AdvanceApplied(v);
    if (apply_next_ <= v) {
      apply_next_ = v + 1;  // never read log entries the image already covers
    }
    PullUpdates();
  });
}

void Proxy::RunAdmitted(const TxnType& type, TxnDone done) {
  replica_->Execute(type, [this, done = std::move(done)](ExecOutcome outcome) mutable {
    if (!outcome.is_update) {
      // Read-only transactions run entirely locally against their snapshot.
      ++stats_.read_only;
      FinishTransaction(true, done);
      return;
    }
    CertifyAndCommit(std::move(outcome), std::move(done));
  });
}

SimDuration Proxy::CertificationRtt() const {
  const CertifierConfig& cc = certifier_->config();
  return 2 * cc.network_one_way + cc.certify_cost;
}

void Proxy::ArmRetry(const RetryPolicy& policy, Rng rng) {
  retry_ = policy;
  retry_armed_ = policy.enabled;
  retry_rng_ = rng;
}

void Proxy::CertifyAndCommit(ExecOutcome outcome, TxnDone done) {
  // One round trip to the certifier: the request carries the writeset and the
  // replica's applied version; the response carries the verdict plus remote
  // writesets committed since. The payload is parked in the pending slab so
  // the scheduled arrival captures only {this, txn_seq, slot, generation}.
  const uint32_t slot = pending_certs_.Alloc();
  PendingCert& pending = pending_certs_[slot];
  pending.ws = std::move(outcome.writeset);
  pending.ws.snapshot_version = applied_version_;
  pending.done = std::move(done);
  pending.txn_seq = next_txn_seq_++;
  pending.attempts = 0;
  if (slot >= cert_gen_.size()) {
    cert_gen_.resize(slot + 1, 0);
    cert_snapshot_.resize(slot + 1, kNoSnapshot);
  }
  cert_snapshot_[slot] = applied_version_;
  ++live_certs_;
  if (live_certs_ > stats_.write_queue_hwm) {
    stats_.write_queue_hwm = live_certs_;
  }
  SendCert(slot);
}

void Proxy::SendCert(uint32_t slot) {
  PendingCert& pending = pending_certs_[slot];
  ++pending.attempts;
  pending.sent_epoch = known_epoch_;
  const uint32_t gen = cert_gen_[slot];
  const uint64_t seq = pending.txn_seq;
  channel_->ScheduleArrival(
      CertificationRtt(), [this, seq, slot, gen]() { OnCertifyArrive(slot, gen, seq); },
      static_cast<uint32_t>(replica_->id()));
  if (retry_armed_) {
    pending.timeout =
        sim_->ScheduleAfter(retry_.timeout, [this, slot, gen]() { OnCertTimeout(slot, gen); });
  }
}

void Proxy::OnCertifyArrive(uint32_t slot, uint32_t gen, uint64_t txn_seq) {
  if (gen != cert_gen_[slot]) {
    // This transaction was already decided through another copy or attempt.
    // The REQUEST still reached the certifier (the round trip models both
    // directions): it re-serves the recorded verdict from its dedup window;
    // the proxy discards the stale response.
    if (certifier_->serving()) {
      certifier_->ResolveDuplicate(replica_->id(), txn_seq);
    }
    ++stats_.stale_responses;
    return;
  }
  PendingCert& pending = pending_certs_[slot];
  if (!certifier_->serving()) {
    // Primary is down: the request goes unanswered. This attempt's timeout
    // drives the retry; nothing to consume here.
    return;
  }
  if (pending.sent_epoch != certifier_->epoch()) {
    // Fenced: the request was addressed to a deposed primary's epoch. Learn
    // the new epoch and resubmit immediately — the failover already
    // happened, so there is nothing to back off from.
    ++stats_.fenced;
    known_epoch_ = certifier_->epoch();
    if (pending.timeout != Simulator::kInvalidEvent) {
      sim_->Cancel(pending.timeout);
      pending.timeout = Simulator::kInvalidEvent;
    }
    SendCert(slot);
    return;
  }
  // First surviving response: accept it and invalidate every other copy.
  ++cert_gen_[slot];
  if (pending.timeout != Simulator::kInvalidEvent) {
    sim_->Cancel(pending.timeout);
    pending.timeout = Simulator::kInvalidEvent;
  }
  last_certifier_contact_ = sim_->Now();
  // Unarmed, the only resend is a fenced one, which the certifier refused
  // undecided: there is nothing to dedup.
  CertifyResult result = certifier_->Certify(std::move(pending.ws), replica_->id(),
                                             applied_version_,
                                             retry_armed_ ? txn_seq : kNoTxnSeq);
  HandleCertifyResult(result, ReleaseCert(slot));
}

void Proxy::OnCertTimeout(uint32_t slot, uint32_t gen) {
  if (gen != cert_gen_[slot]) {
    return;  // the response landed before this event was cancelled; done
  }
  PendingCert& pending = pending_certs_[slot];
  pending.timeout = Simulator::kInvalidEvent;
  ++stats_.cert_timeouts;
  if (lifecycle_ == ReplicaLifecycle::kDown) {
    // The replica failed: the client sees an abort and retries elsewhere.
    ++cert_gen_[slot];
    FinishTransaction(false, ReleaseCert(slot));
    return;
  }
  ++stats_.cert_retries;
  const int attempt = pending.attempts;
  sim_->ScheduleAfter(BackoffDelay(attempt), [this, slot, gen]() {
    if (gen != cert_gen_[slot]) {
      return;  // a late copy completed the transaction while backing off
    }
    SendCert(slot);
  });
}

SimDuration Proxy::BackoffDelay(int attempt) {
  double backoff = static_cast<double>(retry_.backoff_base);
  const double cap = static_cast<double>(retry_.backoff_max);
  for (int i = 1; i < attempt && backoff < cap; ++i) {
    backoff *= retry_.backoff_factor;
  }
  if (backoff > cap) {
    backoff = cap;
  }
  if (retry_.jitter > 0.0) {
    backoff *= 1.0 + retry_.jitter * (2.0 * retry_rng_.NextDouble() - 1.0);
  }
  const auto d = static_cast<SimDuration>(backoff);
  return d > 0 ? d : 1;
}

Proxy::TxnDone Proxy::ReleaseCert(uint32_t slot) {
  PendingCert& pending = pending_certs_[slot];
  TxnDone done = std::move(pending.done);
  pending.ws = Writeset{};
  cert_snapshot_[slot] = kNoSnapshot;
  --live_certs_;
  pending_certs_.Free(slot);
  return done;
}

Version Proxy::snapshot_floor() const {
  Version floor = applied_version_;
  for (const Version snapshot : cert_snapshot_) {
    floor = std::min(floor, snapshot);
  }
  return floor;
}

void Proxy::HandleCertifyResult(const CertifyResult& result, TxnDone done) {
  EnqueueRemotes(result.remote);
  PumpApplier();
  if (result.committed) {
    const Version commit_version = result.commit_version;
    // The local update commits only after every intervening remote writeset
    // is applied; no fsync (durability lives in the certifier log).
    WaitApplied(commit_version - 1, [this, commit_version, done = std::move(done)]() {
      AdvanceApplied(commit_version);
      ++lifetime_update_commits_;
      FinishTransaction(true, done);
    });
  } else {
    // Certification abort: apply what the response carried, then report.
    WaitApplied(apply_hi_, [this, done = std::move(done)]() {
      FinishTransaction(false, done);
    });
  }
}

void Proxy::EnqueueRemotes(WritesetRange remotes) {
  // Responses always describe (applied .. head]; dedup against overlapping
  // responses by only ever extending the high cursor.
  if (!remotes.empty() && remotes.to > apply_hi_) {
    apply_hi_ = remotes.to;
  }
}

void Proxy::PumpApplier() {
  if (lifecycle_ == ReplicaLifecycle::kDown) {
    return;  // a fail-stopped machine applies nothing; Recover() drains later
  }
  if (installing_) {
    return;  // the image covers these versions; the install completion resumes
  }
  if (pump_active_ || applying_) {
    return;
  }
  if (lifecycle_ == ReplicaLifecycle::kRecovering) {
    PumpApplierBatched();
    return;
  }
  // From here on the replica is up: recovery replay never reaches this loop,
  // so nothing below counts replay work or finishes a recovery.
  pump_active_ = true;
  const bool mask_fast = config_.mask_filtering && subscription_.has_value();
  // Chunk skip-scan is legal here only while no waiter is parked: skipping
  // coalesces a run of per-version AdvanceApplied calls into one, which is
  // invisible when AdvanceApplied is pure bookkeeping but would re-order
  // waiter firings (and with them commit completions) otherwise. The batched
  // recovery pump has no such gate — it already defers AdvanceApplied.
  bool try_skip = mask_fast && waiters_.empty();
  while (!ApplyQueueEmpty()) {
    if (apply_next_ <= applied_version_) {
      ++apply_next_;  // already covered (e.g. own commit)
      continue;
    }
    if (try_skip || (mask_fast && waiters_.empty() &&
                     (apply_next_ - 1) % WritesetLog::kChunkEntries == 0)) {
      try_skip = false;
      const Version hop = certifier_->SkipUnwanted(apply_next_, apply_hi_, sub_mask_);
      if (hop > apply_next_) {
        // Every version in [apply_next_, hop) is provably unwanted; identical
        // to the per-entry filter branch below run hop - apply_next_ times.
        const uint64_t skipped = hop - apply_next_;
        stats_.writesets_filtered += skipped;
        stats_.mask_skipped += skipped;
        apply_next_ = hop;
        AdvanceApplied(hop - 1);
        continue;
      }
    }
    const Writeset& ws = certifier_->LogEntry(apply_next_);
    if (!Wanted(ws)) {
      ++apply_next_;
      ++stats_.writesets_filtered;
      AdvanceApplied(ws.commit_version);
      continue;
    }
    ++apply_next_;
    const Version version = ws.commit_version;
    ++stats_.writesets_applied;
    applying_ = true;
    replica_->ApplyWriteset(ws, [this, version]() {
      applying_ = false;
      AdvanceApplied(version);
      PumpApplier();
    });
    break;  // resume when the asynchronous apply completes
  }
  pump_active_ = false;
}

void Proxy::PumpApplierBatched() {
  // Recovery fast path: stage every pending log entry's buffer-pool work
  // (identical draws, identical order as the per-writeset pump), then charge
  // disk and CPU once for the whole run. Version bookkeeping advances when
  // the batch completes — during recovery nothing commits locally, so the
  // deferred AdvanceApplied only changes wall time, not outcomes.
  pump_active_ = true;
  Replica::ApplyBatch batch;
  Version last = applied_version_;
  const bool mask_fast = config_.mask_filtering && subscription_.has_value();
  bool try_skip = mask_fast;  // AdvanceApplied is already deferred: no waiter gate
  while (!ApplyQueueEmpty()) {
    if (apply_next_ <= applied_version_) {
      ++apply_next_;  // already covered (e.g. the checkpoint image)
      continue;
    }
    if (try_skip || (mask_fast && (apply_next_ - 1) % WritesetLog::kChunkEntries == 0)) {
      try_skip = false;
      const Version hop = certifier_->SkipUnwanted(apply_next_, apply_hi_, sub_mask_);
      if (hop > apply_next_) {
        // Recovery replay of a narrow subscription drops to O(chunks): whole
        // chunks of unwanted history advance the cursor without being read.
        const uint64_t skipped = hop - apply_next_;
        stats_.writesets_filtered += skipped;
        stats_.replay_filtered += skipped;
        stats_.mask_skipped += skipped;
        last = hop - 1;
        apply_next_ = hop;
        continue;
      }
    }
    const Writeset& ws = certifier_->LogEntry(apply_next_);
    ++apply_next_;
    if (!Wanted(ws)) {
      ++stats_.writesets_filtered;
      ++stats_.replay_filtered;
    } else {
      ++stats_.writesets_applied;
      ++stats_.replay_applied;
      replica_->StageApply(ws, batch);
    }
    last = ws.commit_version;
  }
  pump_active_ = false;
  if (batch.count == 0) {
    AdvanceApplied(last);  // everything filtered (or queue already drained)
    MaybeFinishRecovery();
    return;
  }
  applying_ = true;
  replica_->SubmitApplyBatch(batch, [this, last]() {
    applying_ = false;
    AdvanceApplied(last);
    PumpApplier();
  });
  MaybeFinishRecovery();
}

void Proxy::MaybeFinishRecovery() {
  if (lifecycle_ != ReplicaLifecycle::kRecovering || applying_ || installing_ ||
      !ApplyQueueEmpty()) {
    return;
  }
  if (applied_version_ < certifier_->head_version()) {
    // The log grew while the replay drained; fetch the delta (another RTT).
    PullUpdates();
    return;
  }
  lifecycle_ = ReplicaLifecycle::kUp;
  ++stats_.recoveries;
  const double dt = ToSeconds(sim_->Now() - recovery_started_);
  stats_.recovery_time_s += dt;
  if (join_pending_) {
    ++stats_.joins;
    stats_.join_time_s += dt;  // state transfer + delta replay, end to end
    join_pending_ = false;
  }
}

void Proxy::WaitApplied(Version target, AppliedHook fn) {
  if (applied_version_ >= target) {
    fn();
    return;
  }
  waiters_.push_back(Waiter{target, std::move(fn)});
}

void Proxy::AdvanceApplied(Version v) {
  if (v > applied_version_) {
    applied_version_ = v;
  }
  if (waiters_.empty()) {
    return;
  }
  // Fire satisfied waiters. A waiter may advance the version further (a local
  // commit) or enqueue more work, so collect-then-run. The single-waiter case
  // (the common one: a commit waiting on its own predecessor) runs without
  // touching the heap; bursts stay inline up to the gatekeeper's default
  // admission limit (the waiter count is bounded by in-flight commits), so
  // the whole drain is allocation-free in steady state.
  AppliedHook first;
  SmallVec<AppliedHook, 7> rest;
  for (size_t i = 0; i < waiters_.size();) {
    if (waiters_[i].target <= applied_version_) {
      if (!first) {
        first = std::move(waiters_[i].fn);
      } else {
        rest.push_back(std::move(waiters_[i].fn));
      }
      waiters_[i] = std::move(waiters_.back());
      waiters_.pop_back();
    } else {
      ++i;
    }
  }
  if (first) {
    first();
  }
  for (auto& fn : rest) {
    fn();
  }
}

void Proxy::FinishTransaction(bool committed, const TxnDone& done) {
  if (committed) {
    ++stats_.committed;
  } else {
    ++stats_.aborted;
  }
  gatekeeper_.Release();
  done(committed);
}

void Proxy::StartDaemons() {
  const SimDuration period = certifier_->config().pull_period;
  sim_->SchedulePeriodic(sim_->Now() + period, period, [this]() {
    // Pull only if we have not talked to the certifier recently, and never
    // while fail-stopped (a down machine does not run its pull daemon).
    if (lifecycle_ != ReplicaLifecycle::kDown &&
        sim_->Now() - last_certifier_contact_ >= certifier_->config().pull_period) {
      PullUpdates();
    }
  });
}

void Proxy::OnProd() {
  if (lifecycle_ == ReplicaLifecycle::kDown) {
    return;  // the machine is off; the certifier's nudge goes unanswered
  }
  ++stats_.prods;
  // Short notification message, then the proxy requests updates.
  sim_->ScheduleAfter(certifier_->config().network_one_way, [this]() { PullUpdates(); });
}

void Proxy::PullUpdates() {
  if (lifecycle_ == ReplicaLifecycle::kDown || installing_ || pull_in_progress_) {
    return;
  }
  pull_in_progress_ = true;
  ++stats_.pulls;
  pull_attempts_ = 0;
  SendPull();
}

void Proxy::SendPull() {
  ++pull_attempts_;
  const uint64_t gen = pull_gen_;
  channel_->ScheduleArrival(CertificationRtt(), [this, gen]() { OnPullArrive(gen); },
                            static_cast<uint32_t>(replica_->id()));
  if (retry_armed_) {
    pull_timeout_ =
        sim_->ScheduleAfter(retry_.timeout, [this, gen]() { OnPullTimeout(gen); });
  }
}

void Proxy::OnPullArrive(uint64_t pull_gen) {
  if (pull_gen != pull_gen_ || !pull_in_progress_) {
    ++stats_.stale_responses;  // a duplicate or superseded copy; pulls are idempotent reads
    return;
  }
  if (!certifier_->serving()) {
    return;  // unanswered; the timeout retries (no fencing: reads carry no epoch)
  }
  ++pull_gen_;  // accept this copy; invalidate the others
  if (pull_timeout_ != Simulator::kInvalidEvent) {
    sim_->Cancel(pull_timeout_);
    pull_timeout_ = Simulator::kInvalidEvent;
  }
  last_certifier_contact_ = sim_->Now();
  EnqueueRemotes(certifier_->Pull(replica_->id(), applied_version_));
  // Cleared before pumping: a recovery that drains this response
  // synchronously must be able to issue the follow-up pull for the delta.
  pull_in_progress_ = false;
  PumpApplier();
}

void Proxy::OnPullTimeout(uint64_t pull_gen) {
  if (pull_gen != pull_gen_ || !pull_in_progress_) {
    return;
  }
  pull_timeout_ = Simulator::kInvalidEvent;
  ++stats_.pull_timeouts;
  if (lifecycle_ == ReplicaLifecycle::kDown) {
    // Crashed while the pull was out; drop it (recovery pulls afresh).
    ++pull_gen_;
    pull_in_progress_ = false;
    return;
  }
  ++stats_.pull_retries;
  sim_->ScheduleAfter(BackoffDelay(pull_attempts_), [this, pull_gen]() {
    if (pull_gen != pull_gen_ || !pull_in_progress_ ||
        lifecycle_ == ReplicaLifecycle::kDown) {
      return;
    }
    SendPull();
  });
}

void Proxy::SetSubscription(std::optional<RelationSet> tables) {
  // The one rebuild point of the cached mask (lazy-evaluation contract),
  // built first so a set that BuildMask rejects changes nothing.
  sub_mask_ = tables.has_value() ? BuildMask(*tables) : TableMask{};
  subscription_ = std::move(tables);
}

}  // namespace tashkent
