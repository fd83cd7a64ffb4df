#include "src/workload/fluid_pool.h"

namespace tashkent {

FluidClientPool::FluidClientPool(Simulator* sim, const Workload* workload, const Mix* mix,
                                 size_t population, SimDuration mean_think, Rng rng)
    : sim_(sim),
      workload_(workload),
      mix_(mix),
      population_(population),
      mean_think_(mean_think),
      rng_(rng) {}

void FluidClientPool::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // The first arrival is the minimum of population_ fresh think clocks —
  // the same Exp(mean_think / population) law as ClientPool's staggered
  // start, without materializing the clocks.
  Reschedule();
}

void FluidClientPool::SetPopulation(size_t population) {
  if (population == population_) {
    return;  // no state change, no redraw: keeps degenerate scenarios inert
  }
  population_ = population;
  if (started_) {
    Reschedule();
  }
}

void FluidClientPool::Reschedule() {
  if (arrival_pending_) {
    sim_->Cancel(next_arrival_);
    arrival_pending_ = false;
  }
  if (!started_ || busy_ >= population_) {
    return;  // every modeled client is in flight (or drained by a shrink)
  }
  const double idle = static_cast<double>(population_ - busy_);
  const SimDuration gap = Seconds(rng_.NextExponential(ToSeconds(mean_think_) / idle));
  next_arrival_ = sim_->ScheduleAfter(gap, [this]() {
    arrival_pending_ = false;
    Arrive();
  });
  arrival_pending_ = true;
}

void FluidClientPool::Arrive() {
  ++busy_;
  const TxnTypeId type = mix_->Sample(rng_);
  Reschedule();
  const uint32_t slot = in_flight_.Alloc();
  in_flight_[slot] = InFlight{sim_->Now(), type};
  Submit(slot);
}

void FluidClientPool::Submit(uint32_t slot) {
  dispatch_(workload_->registry.Get(in_flight_[slot].type), slot);
}

void FluidClientPool::Complete(uint32_t slot, bool committed) {
  const InFlight txn = in_flight_[slot];
  const TxnType& type = workload_->registry.Get(txn.type);
  if (!committed) {
    if (on_abort_) {
      on_abort_(type);
    }
    // Same reconnect delay as ClientPool; the client stays busy through
    // the retry so the arrival rate sees the blocked population.
    sim_->ScheduleAfter(Millis(5), [this, slot]() { Submit(slot); });
    return;
  }
  in_flight_.Free(slot);
  if (on_commit_) {
    on_commit_(type, sim_->Now() - txn.started_at);
  }
  --busy_;
  Reschedule();
}

}  // namespace tashkent
