// Load balancer interface.
//
// The balancer is the JDBC-driver front end of Section 4.2: clients announce a
// transaction type, the balancer picks a replica proxy. Policies see proxy
// connection counts (LeastConnections/LARD signals) and the replica monitors'
// smoothed utilizations (MALB's signal); they never see buffer-pool state.
#ifndef SRC_BALANCER_BALANCER_H_
#define SRC_BALANCER_BALANCER_H_

#include <string>
#include <vector>

#include "src/engine/txn_type.h"
#include "src/proxy/proxy.h"
#include "src/sim/simulator.h"
#include "src/storage/schema.h"

namespace tashkent {

struct BalancerContext {
  Simulator* sim = nullptr;
  const TxnTypeRegistry* registry = nullptr;
  const Schema* schema = nullptr;
  std::vector<Proxy*> proxies;
};

class LoadBalancer {
 public:
  explicit LoadBalancer(BalancerContext context) : context_(std::move(context)) {}
  virtual ~LoadBalancer() = default;

  LoadBalancer(const LoadBalancer&) = delete;
  LoadBalancer& operator=(const LoadBalancer&) = delete;

  // Called once after wiring; policies start periodic work here.
  virtual void Start() {}

  // Picks the proxy index that should run the next transaction of `type`.
  virtual size_t Route(const TxnType& type) = 0;

  // Completion callback, for policies that track in-flight state themselves.
  virtual void OnComplete(size_t proxy_index, const TxnType& type) {
    (void)proxy_index;
    (void)type;
  }

  // --- Topology hooks (churn verbs, src/cluster/verb.h) --------------------
  // A replica joined the cluster at runtime (AddReplica). The default appends
  // it to the routable proxy list and signals a topology change; policies
  // with derived state extend OnTopologyChange rather than this (MALB also
  // attaches the new proxy to its idle sets first).
  virtual void OnReplicaAdded(Proxy* proxy) {
    context_.proxies.push_back(proxy);
    OnTopologyChange();
  }
  // Replica capacities or count changed (AddReplica / ResizeMemory). Policies
  // that precompute against the topology (MALB's packing) refresh here;
  // connection-count policies need nothing.
  virtual void OnTopologyChange() {}

  virtual std::string name() const = 0;

  size_t replica_count() const { return context_.proxies.size(); }

 protected:
  BalancerContext context_;
};

}  // namespace tashkent

#endif  // SRC_BALANCER_BALANCER_H_
