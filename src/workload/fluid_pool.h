// Fluid (aggregate) client-pool model: O(1) state for O(100k-1M) clients.
//
// ClientPool keeps one event chain per client, which is exact but makes a
// million-client flash crowd a million event chains. FluidClientPool models
// the same closed-loop population as a single arrival process over the
// aggregate state {population, busy}:
//
//   * Each of the `idle = population - busy` clients is an independent
//     exponential think clock of rate 1/Z (Z = mean think time), so the next
//     arrival is the minimum of idle exponentials: Exp(idle/Z). One pending
//     simulator event carries the whole pool.
//   * Exponentials are memoryless, so whenever `idle` changes (an arrival, a
//     commit, a SetPopulation step) the pending arrival is cancelled and
//     redrawn at the new rate — statistically identical to letting the
//     per-client clocks run, with O(1) work per transition.
//   * The transaction type is sampled from the active mix at the arrival
//     instant. By Poisson thinning this is equivalent to running one
//     independent arrival process per transaction type with rate
//     weight(type) * idle/Z — the per-type formulation in the model papers —
//     while tracking a single process and honoring mid-run mix switches.
//   * An aborted transaction retries after the same 5 ms reconnect delay as
//     ClientPool; the client stays busy through the retry, so abort storms
//     damp the arrival rate exactly as a blocked per-client population would.
//
// Fidelity contract (docs/ARCHITECTURE.md, "Fluid client model — fidelity
// contract", enforced by tests/fluid_model_test.cc): the fluid model is
// law-identical to ClientPool — same arrival-process distribution, same
// per-transaction behavior — but NOT bit-identical (it consumes the RNG
// stream in a different order). Throughput, response, miss and abort rates
// must agree within pinned tolerances at small N; determinism (`--jobs N` ==
// `--jobs 1`, same seed => same bytes) holds exactly, because every draw
// comes from the pool's own forked Rng in simulator-event order.
#ifndef SRC_WORKLOAD_FLUID_POOL_H_
#define SRC_WORKLOAD_FLUID_POOL_H_

#include "src/common/slab_list.h"
#include "src/workload/client.h"

namespace tashkent {

class FluidClientPool : public ClientSource {
 public:
  FluidClientPool(Simulator* sim, const Workload* workload, const Mix* mix, size_t population,
                  SimDuration mean_think, Rng rng);

  void SetMix(const Mix* mix) override { mix_ = mix; }

  void Start() override;

  // O(1): adjusts the target and redraws the pending arrival at the new
  // idle rate. Shrinking below `busy()` pauses arrivals until enough
  // in-flight transactions drain. A no-op call (same population before
  // Start) consumes no randomness.
  void SetPopulation(size_t population) override;
  size_t population() const override { return population_; }

  // Clients currently in-flight (submitted or in abort-retry wait).
  size_t busy() const { return busy_; }

  // `token` is the transaction's slot in the in-flight slab.
  void Complete(uint32_t token, bool committed) override;

 private:
  // A transaction in flight (or in abort-retry wait): the instant its
  // response time counts from, and its type. This is all the pool keeps per
  // busy client.
  struct InFlight {
    SimTime started_at = 0;
    TxnTypeId type = kInvalidTxnType;
  };
  static_assert(sizeof(InFlight) <= 16, "a fluid client's in-flight record is 16 bytes");

  void Arrive();
  // Cancels any pending arrival and, when idle clients exist, draws the next
  // arrival gap Exp(mean_think / idle). Valid at every state change by
  // memorylessness.
  void Reschedule();
  // Dispatches the transaction parked in `slot`.
  void Submit(uint32_t slot);

  Simulator* sim_;
  const Workload* workload_;
  const Mix* mix_;
  size_t population_;
  SimDuration mean_think_;
  Rng rng_;
  size_t busy_ = 0;
  Slab<InFlight> in_flight_;  // busy_ live slots
  Simulator::EventId next_arrival_ = Simulator::kInvalidEvent;
  bool arrival_pending_ = false;
  bool started_ = false;
};

}  // namespace tashkent

#endif  // SRC_WORKLOAD_FLUID_POOL_H_
