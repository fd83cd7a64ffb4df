#include "src/workload/client.h"

namespace tashkent {

ClientPool::ClientPool(Simulator* sim, const Workload* workload, const Mix* mix, size_t clients,
                       SimDuration mean_think, Rng rng)
    : sim_(sim),
      workload_(workload),
      mix_(mix),
      population_(clients),
      mean_think_(mean_think),
      rng_(rng) {}

void ClientPool::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  clients_.assign(population_, Client{});
  for (uint32_t c = 0; c < population_; ++c) {
    clients_[c].running = true;
    // Stagger initial arrivals over one think time to avoid a thundering
    // herd at t=0.
    const SimDuration offset = Seconds(rng_.NextExponential(ToSeconds(mean_think_)));
    sim_->ScheduleAfter(offset, [this, c]() { ClientThink(c); });
  }
}

void ClientPool::SetPopulation(size_t population) {
  if (population > clients_.size()) {
    clients_.resize(population);
  }
  population_ = population;
  if (!started_) {
    return;  // Start() spawns exactly population_ clients
  }
  // Shrinks need no action here: clients at or above the target park when
  // their current chain reaches its next think/commit. Growth (re)spawns
  // every non-running client below the target, staggered like Start().
  for (uint32_t c = 0; c < population; ++c) {
    if (clients_[c].running) {
      continue;
    }
    clients_[c].running = true;
    const SimDuration offset = Seconds(rng_.NextExponential(ToSeconds(mean_think_)));
    sim_->ScheduleAfter(offset, [this, c]() { ClientThink(c); });
  }
}

void ClientPool::ClientThink(uint32_t client) {
  if (client >= population_) {
    clients_[client].running = false;  // parked by a population shrink
    return;
  }
  clients_[client].type = mix_->Sample(rng_);
  clients_[client].started_at = sim_->Now();
  ClientSubmit(client);
}

void ClientPool::ClientSubmit(uint32_t client) {
  dispatch_(workload_->registry.Get(clients_[client].type), client);
}

void ClientPool::Complete(uint32_t client, bool committed) {
  const Client& c = clients_[client];
  const TxnType& type = workload_->registry.Get(c.type);
  if (!committed) {
    if (on_abort_) {
      on_abort_(type);
    }
    // Retry the same transaction after a short reconnect delay; response
    // time keeps accruing from the original start. The delay also bounds
    // recursion when the cluster is briefly unavailable.
    sim_->ScheduleAfter(Millis(5), [this, client]() { ClientSubmit(client); });
    return;
  }
  if (on_commit_) {
    on_commit_(type, sim_->Now() - c.started_at);
  }
  if (client >= population_) {
    clients_[client].running = false;  // parked by a population shrink
    return;
  }
  const SimDuration think = Seconds(rng_.NextExponential(ToSeconds(mean_think_)));
  sim_->ScheduleAfter(think, [this, client]() { ClientThink(client); });
}

}  // namespace tashkent
