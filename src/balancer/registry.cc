#include "src/balancer/registry.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/balancer/lard.h"
#include "src/balancer/malb.h"
#include "src/balancer/simple.h"
#include "src/cluster/cluster.h"

namespace tashkent {

namespace {

PolicyFactory MalbFactory(EstimationMethod method) {
  return [method](BalancerContext ctx, const ClusterConfig& config) {
    MalbConfig mc = config.malb;
    mc.method = method;
    return std::make_unique<MalbBalancer>(std::move(ctx), mc);
  };
}

}  // namespace

PolicyRegistry::PolicyRegistry() {
  Register("RoundRobin", [](BalancerContext ctx, const ClusterConfig&) {
    return std::make_unique<RoundRobinBalancer>(std::move(ctx));
  });
  Register("LeastConnections", [](BalancerContext ctx, const ClusterConfig&) {
    return std::make_unique<LeastConnectionsBalancer>(std::move(ctx));
  });
  Register("LARD", [](BalancerContext ctx, const ClusterConfig&) {
    return std::make_unique<LardBalancer>(std::move(ctx));
  });
  Register("MALB-S", MalbFactory(EstimationMethod::kSize));
  Register("MALB-SC", MalbFactory(EstimationMethod::kSizeContent));
  Register("MALB-SCAP", MalbFactory(EstimationMethod::kSizeContentAccess));
}

PolicyRegistry& PolicyRegistry::Instance() {
  static PolicyRegistry registry;
  return registry;
}

void PolicyRegistry::Register(const std::string& name, PolicyFactory factory) {
  factories_[name] = std::move(factory);
}

bool PolicyRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> PolicyRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    (void)factory;
    names.push_back(name);
  }
  return names;
}

std::unique_ptr<LoadBalancer> PolicyRegistry::Create(const std::string& name,
                                                     BalancerContext context,
                                                     const ClusterConfig& config) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::ostringstream msg;
    msg << "unknown policy '" << name << "'; registered policies:";
    for (const auto& [known, factory] : factories_) {
      (void)factory;
      msg << ' ' << known;
    }
    throw std::invalid_argument(msg.str());
  }
  return it->second(std::move(context), config);
}

}  // namespace tashkent
