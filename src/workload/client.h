// Closed-loop client emulator.
//
// A fixed population of clients each loops: think (exponential), sample a
// transaction type from the active mix, submit through the balancer, wait for
// the commit. Certification aborts are retried immediately by the same client
// (the paper's clients "abort and retry"). The paper sizes the population per
// replica at the client count that drives a standalone database to 85% of its
// peak throughput; src/cluster/calibration.h implements that procedure.
//
// The active mix can be switched at runtime (the Figure 6 workload change),
// and the population can be retargeted mid-run (flash crowds, diurnal
// curves): surplus clients park at their next think/commit, new clients
// stagger in over one think time.
//
// ClientSource is the abstract surface the Cluster drives; ClientPool is the
// per-client discrete model, FluidClientPool (src/workload/fluid_pool.h) the
// aggregate arrival-rate model for O(100k-1M) populations. Both share the
// dispatch/commit/abort callback wiring here, and each owns the client-side
// state of its transactions in flight: the cluster sees only a 32-bit token.
#ifndef SRC_WORKLOAD_CLIENT_H_
#define SRC_WORKLOAD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace tashkent {

// Abstract client-workload generator: whatever model produces transactions,
// the Cluster wires it identically (dispatch through the balancer, commit and
// abort counters) and scenarios drive it through the same verbs.
class ClientSource {
 public:
  // Submits a transaction. `token` names it until the cluster answers with
  // Complete(token, committed); the source owns everything the client side
  // needs (type, start time, retry), so the path below carries only the
  // token. The Dispatch itself is installed once per run (cold), so
  // std::function is fine here.
  using Dispatch = std::function<void(const TxnType&, uint32_t token)>;
  // Invoked on every commit with (type, response_time); aborts invoke
  // on_abort.
  using OnCommit = std::function<void(const TxnType&, SimDuration)>;
  using OnAbort = std::function<void(const TxnType&)>;

  virtual ~ClientSource() = default;

  void SetDispatch(Dispatch dispatch) { dispatch_ = std::move(dispatch); }
  void SetOnCommit(OnCommit cb) { on_commit_ = std::move(cb); }
  void SetOnAbort(OnAbort cb) { on_abort_ = std::move(cb); }

  // Reports the outcome of the transaction dispatched with `token`. A commit
  // ends it; an abort retries it after a 5 ms reconnect delay, keeping its
  // type and original start time, under the same token.
  virtual void Complete(uint32_t token, bool committed) = 0;

  // Switches the active mix; takes effect at the next transaction sample.
  virtual void SetMix(const Mix* mix) = 0;

  virtual void Start() = 0;

  // Retargets the modeled client population at runtime. Growing spawns the
  // extra clients (staggered over one think time); shrinking drains — the
  // surplus finish their in-flight work and stop. A no-op call (same
  // population) consumes no randomness, so an "armed but degenerate"
  // scenario stays byte-identical to one that never calls it.
  virtual void SetPopulation(size_t population) = 0;
  // The current population target.
  virtual size_t population() const = 0;

 protected:
  Dispatch dispatch_;
  OnCommit on_commit_;
  OnAbort on_abort_;
};

class ClientPool : public ClientSource {
 public:
  ClientPool(Simulator* sim, const Workload* workload, const Mix* mix, size_t clients,
             SimDuration mean_think, Rng rng);

  void SetMix(const Mix* mix) override { mix_ = mix; }

  void Start() override;

  void SetPopulation(size_t population) override;
  size_t population() const override { return population_; }

  size_t clients() const { return population_; }

  // `token` is the client's index.
  void Complete(uint32_t token, bool committed) override;

 private:
  void ClientThink(uint32_t client);
  // Dispatches client `client`'s current transaction.
  void ClientSubmit(uint32_t client);

  Simulator* sim_;
  const Workload* workload_;
  const Mix* mix_;
  size_t population_;
  SimDuration mean_think_;
  Rng rng_;
  // One record per client, indexed by the client's token.
  struct Client {
    // The transaction in flight (or in abort-retry wait): the instant its
    // response time counts from, and its type.
    SimTime started_at = 0;
    TxnTypeId type = kInvalidTxnType;
    // True while the client has a think event or transaction in flight; a
    // client parked by a population shrink clears it when its chain ends,
    // and only clear clients are respawned on growth (never double-started).
    bool running = false;
  };
  // Grows monotonically to the largest population ever targeted.
  std::vector<Client> clients_;
  bool started_ = false;
};

}  // namespace tashkent

#endif  // SRC_WORKLOAD_CLIENT_H_
