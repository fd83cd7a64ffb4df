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
      owned_channel_(channel == nullptr ? std::make_unique<CertifierChannel>(sim) : nullptr),
      channel_(channel == nullptr ? owned_channel_.get() : channel) {}

void Proxy::SubmitTransaction(const TxnType& type, TxnDone done) {
  if (lifecycle_ != ReplicaLifecycle::kUp) {
    // lifecycle: submit. The balancer routes around a replica that is not
    // up, but racing submissions fail fast and the client retries elsewhere.
    ++stats_.rejected;
    done(false);
    return;
  }
  const uint32_t txn = txns_.Alloc();
  txns_[txn].type = &type;
  txns_[txn].done = std::move(done);
  if (gatekeeper_.Admit(txn)) {
    RunAdmitted(txn);
  }
}

void Proxy::Crash() {
  // lifecycle: crash. Every state goes down; in-flight work drains. The
  // epoch discards a torn checkpoint image, and the durable applied_version_
  // prefix survives.
  lifecycle_ = ReplicaLifecycle::kDown;
  ++crash_epoch_;
}

void Proxy::JoinAsNew() {
  Crash();
  join_pending_ = true;
  Recover();
}

void Proxy::Recover() {
  if (lifecycle_ != ReplicaLifecycle::kDown) {
    return;  // lifecycle: recover. Only a down replica recovers.
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
  lifecycle_ = ReplicaLifecycle::kInstalling;
  installing_version_ = ckpt.version;
  const uint64_t epoch = crash_epoch_;
  replica_->InstallCheckpoint(ckpt, [this, epoch, v = ckpt.version]() {
    if (epoch != crash_epoch_) {
      return;  // lifecycle: torn-install. A crash since the install discards the image.
    }
    // lifecycle: install-done, reached only while kInstalling.
    lifecycle_ = ReplicaLifecycle::kRecovering;
    AdvanceApplied(v);
    PullUpdates();
  });
}

void Proxy::RunAdmitted(uint32_t txn) {
  replica_->Execute(*txns_[txn].type, [this, txn](ExecOutcome outcome) {
    // lifecycle: execute-done, the same in every state (admitted work drains).
    if (!outcome.is_update) {
      // Read-only transactions run entirely locally against their snapshot.
      ++stats_.read_only;
      FinishTransaction(true, txn);
      return;
    }
    CertifyAndCommit(std::move(outcome), txn);
  });
}

static_assert(RetryPolicy{}.timeout > kCertificationRtt,
              "the default retry timeout must exceed the certification RTT");

void Proxy::CertifyAndCommit(ExecOutcome outcome, uint32_t txn) {
  // One round trip to the certifier: the request carries the writeset and the
  // replica's applied version; the response carries the verdict plus remote
  // writesets committed since. The payload is parked in the pending slab so
  // the scheduled arrival captures only {this, txn_seq, slot, generation}.
  const uint32_t slot = pending_certs_.Alloc();
  PendingCert& pending = pending_certs_[slot];
  pending.ws = std::move(outcome.writeset);
  pending.ws.snapshot_version = applied_version_;
  pending.txn = txn;
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
      kCertificationRtt, [this, seq, slot, gen]() { OnCertifyArrive(slot, gen, seq); },
      static_cast<uint32_t>(replica_->id()));
  if (config_.retry.enabled) {
    pending.timeout = sim_->ScheduleAfter(config_.retry.timeout,
                                          [this, slot, gen]() { OnCertTimeout(slot, gen); });
  }
}

void Proxy::OnCertifyArrive(uint32_t slot, uint32_t gen, uint64_t txn_seq) {
  // lifecycle: cert-response, the same in every state (admitted work drains).
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
  // Without retry, the only resend is a fenced one, which the certifier refused
  // undecided: there is nothing to dedup.
  CertifyResult result = certifier_->Certify(std::move(pending.ws), replica_->id(),
                                             applied_version_,
                                             config_.retry.enabled ? txn_seq : kNoTxnSeq);
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
    // lifecycle: cert-timeout. The replica failed: the client sees an abort.
    ++cert_gen_[slot];
    FinishTransaction(false, ReleaseCert(slot));
    return;
  }
  ++stats_.cert_retries;
  const int attempt = pending.attempts;
  sim_->ScheduleAfter(BackoffDelay(attempt), [this, slot, gen]() {
    // lifecycle: cert-resend, the same in every state.
    if (gen != cert_gen_[slot]) {
      return;  // a late copy completed the transaction while backing off
    }
    SendCert(slot);
  });
}

SimDuration Proxy::BackoffDelay(int attempt) {
  const RetryPolicy& retry = config_.retry;
  double backoff = static_cast<double>(retry.backoff_base);
  const double cap = static_cast<double>(retry.backoff_max);
  for (int i = 1; i < attempt && backoff < cap; ++i) {
    backoff *= kBackoffFactor;
  }
  if (backoff > cap) {
    backoff = cap;
  }
  if (retry.jitter > 0.0) {
    backoff *= 1.0 + retry.jitter * (2.0 * retry_rng_.NextDouble() - 1.0);
  }
  const auto d = static_cast<SimDuration>(backoff);
  return d > 0 ? d : 1;
}

uint32_t Proxy::ReleaseCert(uint32_t slot) {
  PendingCert& pending = pending_certs_[slot];
  const uint32_t txn = pending.txn;
  pending.ws = Writeset{};
  cert_snapshot_[slot] = kNoSnapshot;
  --live_certs_;
  pending_certs_.Free(slot);
  return txn;
}

Version Proxy::snapshot_floor() const {
  Version floor = applied_version_;
  for (const Version snapshot : cert_snapshot_) {
    floor = std::min(floor, snapshot);
  }
  return floor;
}

void Proxy::HandleCertifyResult(const CertifyResult& result, uint32_t txn) {
  EnqueueRemotes(result.remote);
  PumpApplier();
  if (result.committed) {
    const Version commit_version = result.commit_version;
    // The local update commits only after every intervening remote writeset
    // is applied; no fsync (durability lives in the certifier log).
    WaitApplied(commit_version - 1, [this, commit_version, txn]() {
      AdvanceApplied(commit_version);
      ++lifetime_update_commits_;
      FinishTransaction(true, txn);
    });
  } else {
    // Certification abort: apply what the response carried, then report.
    WaitApplied(apply_hi_, [this, txn]() { FinishTransaction(false, txn); });
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
  // Only kUp and kRecovering apply: a fail-stopped machine applies nothing
  // (Recover() drains later), and during a checkpoint install the image
  // covers these versions (its completion resumes). One pump or one apply
  // runs at a time.
  if (lifecycle_ > ReplicaLifecycle::kRecovering || pump_active_ || applying_) {
    return;
  }
  // `recovering` is read in three places: (1) the skip-scan gate, (2) when
  // the applied version moves, (3) whether the loop stops at the first wanted
  // writeset. Replay work is counted in the lifetime counters and, while
  // recovering, in the replay counters too (`replay` is 1 then, else 0).
  pump_active_ = true;
  const bool recovering = lifecycle_ == ReplicaLifecycle::kRecovering;
  const uint64_t replay = recovering ? 1 : 0;
  Replica::ApplyBatch batch;
  Version last = applied_version_;  // newest version this pump has passed
  // Versions through `v` pass unapplied, `n` of them filtered. (2) Up, the
  // applied version follows each pass, so commits parked on them fire in log
  // order; recovering, it moves once, when the batch lands.
  auto pass = [&](Version v, uint64_t n) {
    stats_.writesets_filtered += n;
    stats_.replay_filtered += replay * n;
    last = v;
    if (!recovering) {
      AdvanceApplied(v);
    }
  };
  bool first = true;  // the skip-scan also probes where the pump starts
  for (;;) {
    // Versions the applied prefix already covers (an own commit, a checkpoint
    // image) are never read.
    apply_next_ = std::max(apply_next_, applied_version_ + 1);
    if (ApplyQueueEmpty()) {
      break;
    }
    const bool probe = first || (apply_next_ - 1) % WritesetLog::kChunkEntries == 0;
    first = false;
    // (1) Skipping coalesces a run of per-version advances into one. Up, that
    // would re-order waiter firings (and with them commit completions), so it
    // runs only while no waiter is parked; recovering, the advance is
    // deferred to the batch anyway. Without a subscription nothing is skipped.
    if (probe && subscription_ && (recovering || waiters_.empty())) {
      const Version hop = certifier_->SkipUnwanted(apply_next_, apply_hi_, *subscription_);
      if (hop > apply_next_) {
        // Every version in [apply_next_, hop) is provably unwanted; identical
        // to the per-entry filter branch below run hop - apply_next_ times.
        const uint64_t skipped = hop - apply_next_;
        stats_.mask_skipped += skipped;
        apply_next_ = hop;
        pass(hop - 1, skipped);
        continue;
      }
    }
    const Writeset& ws = certifier_->LogEntry(apply_next_++);
    if (!Wanted(ws)) {
      pass(ws.commit_version, 1);
      continue;
    }
    ++stats_.writesets_applied;
    stats_.replay_applied += replay;
    replica_->StageApply(ws, batch);
    last = ws.commit_version;
    if (!recovering) {
      break;  // (3) up: resume when this apply completes
    }
  }
  pump_active_ = false;
  if (batch.count > 0) {
    // One disk/CPU submission: a single writeset when up, the whole replayed
    // run when recovering.
    applying_ = true;
    replica_->SubmitApplyBatch(batch, [this, last]() {
      // lifecycle: apply-done, the same in every state (the batch lands).
      applying_ = false;
      AdvanceApplied(last);
      PumpApplier();
    });
  } else if (last > applied_version_) {
    AdvanceApplied(last);  // a replay that filtered everything
  }
  MaybeFinishRecovery();
}

void Proxy::MaybeFinishRecovery() {
  if (lifecycle_ != ReplicaLifecycle::kRecovering || applying_ || !ApplyQueueEmpty()) {
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

void Proxy::FinishTransaction(bool committed, uint32_t txn) {
  if (committed) {
    ++stats_.committed;
  } else {
    ++stats_.aborted;
  }
  // Moved out and freed first: `done` may submit again, which can reuse the
  // slot or grow the slab.
  TxnDone done = std::move(txns_[txn].done);
  txns_.Free(txn);
  const uint32_t next = gatekeeper_.Release();
  if (next != kNilSlot) {
    RunAdmitted(next);  // the freed gatekeeper slot passes straight to it
  }
  done(committed);
}

void Proxy::StartDaemons() {
  sim_->SchedulePeriodic(sim_->Now() + kPullPeriod, kPullPeriod, [this]() {
    // lifecycle: pull-tick. Pull only if we have not talked to the certifier
    // recently, and never while fail-stopped.
    if (lifecycle_ != ReplicaLifecycle::kDown &&
        sim_->Now() - last_certifier_contact_ >= kPullPeriod) {
      PullUpdates();
    }
  });
}

void Proxy::OnProd() {
  if (lifecycle_ == ReplicaLifecycle::kDown) {
    return;  // lifecycle: prod. The machine is off; the nudge goes unanswered.
  }
  ++stats_.prods;
  // Short notification message, then the proxy requests updates.
  sim_->ScheduleAfter(kNetworkOneWay, [this]() { PullUpdates(); });
}

void Proxy::PullUpdates() {
  if (lifecycle_ > ReplicaLifecycle::kRecovering || pull_in_progress_) {
    return;  // lifecycle: pull. Only kUp and kRecovering pull, one pull at a time.
  }
  pull_in_progress_ = true;
  ++stats_.pulls;
  pull_attempts_ = 0;
  SendPull();
}

void Proxy::SendPull() {
  ++pull_attempts_;
  const uint64_t gen = pull_gen_;
  channel_->ScheduleArrival(kCertificationRtt, [this, gen]() { OnPullArrive(gen); },
                            static_cast<uint32_t>(replica_->id()));
  if (config_.retry.enabled) {
    pull_timeout_ =
        sim_->ScheduleAfter(config_.retry.timeout, [this, gen]() { OnPullTimeout(gen); });
  }
}

void Proxy::OnPullArrive(uint64_t pull_gen) {
  // lifecycle: pull-response, the same in every state (the pump decides).
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
    // lifecycle: pull-timeout. Crashed while the pull was out; drop it.
    ++pull_gen_;
    pull_in_progress_ = false;
    return;
  }
  ++stats_.pull_retries;
  sim_->ScheduleAfter(BackoffDelay(pull_attempts_), [this, pull_gen]() {
    if (pull_gen != pull_gen_ || !pull_in_progress_) {
      return;
    }
    if (lifecycle_ == ReplicaLifecycle::kDown) {
      // lifecycle: pull-resend. Crashed during the backoff; drop the pull as
      // pull-timeout does, so the pull of a later Recover() goes out.
      ++pull_gen_;
      pull_in_progress_ = false;
      return;
    }
    SendPull();
  });
}

}  // namespace tashkent
