#include "src/certifier/channel.h"

#include <cassert>
#include <utility>

namespace tashkent {

void CertifierChannel::ScheduleArrival(SimDuration delay, Arrival fn, uint32_t sender) {
  if (faulty_) {
    InjectFaults(delay, std::move(fn), sender);
    return;
  }
  Deliver(delay, std::move(fn));
}

void CertifierChannel::ArmFaults(FaultPlan plan, Rng rng) {
  if (!plan.armed()) {
    return;  // stay byte-inert: no draws, no fault accounting
  }
  plan_ = std::move(plan);
  fault_rng_ = rng;
  faulty_ = true;
}

void CertifierChannel::AddPartition(uint32_t sender, SimTime from, SimTime to) {
  plan_.partitions.push_back(FaultPlan::PartitionWindow{sender, from, to});
  faulty_ = true;
}

bool CertifierChannel::InPartition(uint32_t sender, SimTime now) const {
  for (const FaultPlan::PartitionWindow& w : plan_.partitions) {
    if (w.sender == sender && w.from <= now && now < w.to) {
      return true;
    }
  }
  return false;
}

SimDuration CertifierChannel::MaybeExtraDelay() {
  if (plan_.delay_probability <= 0.0 || plan_.delay_mean <= 0 ||
      !fault_rng_.NextBool(plan_.delay_probability)) {
    return 0;
  }
  ++fault_stats_.delayed;
  // At least one microsecond so a "delayed" message never lands on its
  // original tick (and never batches with undelayed same-tick arrivals).
  return 1 + static_cast<SimDuration>(
                 fault_rng_.NextExponential(static_cast<double>(plan_.delay_mean)));
}

void CertifierChannel::InjectFaults(SimDuration delay, Arrival fn, uint32_t sender) {
  // Partition windows are checked first and spend no draws, so scripting a
  // partition mid-run never shifts the drop/delay/duplicate schedule of
  // messages outside it... for senders outside the window. Draw order after
  // that is fixed (drop, delay, duplicate, duplicate's delay) so one seed
  // fully determines the fault sequence.
  if (!plan_.partitions.empty() && InPartition(sender, sim_->Now())) {
    ++fault_stats_.partition_dropped;
    return;
  }
  if (plan_.drop > 0.0 && fault_rng_.NextBool(plan_.drop)) {
    ++fault_stats_.dropped;
    return;
  }
  const SimDuration d = delay + MaybeExtraDelay();
  if (plan_.duplicate > 0.0 && fault_rng_.NextBool(plan_.duplicate)) {
    ++fault_stats_.duplicated;
    const SimDuration d2 = delay + MaybeExtraDelay();
    // Arrival is move-only; park the handler once and deliver it through a
    // refcounted slot (invocation is non-destructive), second delivery frees.
    const uint32_t slot = dup_slab_.Alloc();
    dup_slab_[slot].fn = std::move(fn);
    dup_slab_[slot].remaining = 2;
    Deliver(d, Arrival([this, slot]() { FireDup(slot); }));
    Deliver(d2, Arrival([this, slot]() { FireDup(slot); }));
    return;
  }
  Deliver(d, std::move(fn));
}

void CertifierChannel::FireDup(uint32_t slot) {
  DupSlot& dup = dup_slab_[slot];
  dup.fn();
  if (--dup.remaining == 0) {
    dup.fn = Arrival();
    dup_slab_.Free(slot);
  }
}

void CertifierChannel::Deliver(SimDuration delay, Arrival fn) {
  ++arrivals_;
  const SimTime when = sim_->Now() + (delay < 0 ? 0 : delay);
  // Piggyback on the open batch for this tick if one exists (with the fixed
  // certification RTT it is always the back; the scan keeps mixed-delay
  // schedules correct too). The currently firing batch is detached before
  // its handlers run, so a re-entrant submission for the firing tick opens a
  // fresh batch (and a fresh event) instead — matching the order per-arrival
  // events would fire in.
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->when == when) {
      it->fns.push_back(std::move(fn));
      return;
    }
    if (it->when < when) {
      break;  // whens are non-decreasing in the common case; stop early
    }
  }
  Batch batch;
  batch.when = when;
  if (!spare_.empty()) {
    batch.fns = std::move(spare_.back());
    spare_.pop_back();
  }
  batch.fns.push_back(std::move(fn));
  open_.push_back(std::move(batch));
  ++events_;
  sim_->ScheduleAfter(delay, [this]() { Fire(); });
}

void CertifierChannel::Fire() {
  // Detach the batch for the current tick before running any handler: a
  // handler may submit a new arrival (even for this very tick) and must not
  // append to a batch that is already draining. With the fixed RTT the
  // firing batch is the front; a mixed-delay schedule may interleave whens,
  // so locate it.
  const SimTime tick = sim_->Now();
  auto it = open_.begin();
  while (it != open_.end() && it->when != tick) {
    ++it;
  }
  assert(it != open_.end() && "a channel event fired with no batch for its tick");
  Batch batch = std::move(*it);
  open_.erase(it);
  for (Arrival& fn : batch.fns) {
    fn();
  }
  batch.fns.clear();
  spare_.push_back(std::move(batch.fns));
}

}  // namespace tashkent
