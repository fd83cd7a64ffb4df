// Dynamic reconfiguration demo: switch the TPC-W mix at runtime and watch
// MALB re-allocate replicas across its transaction groups (the Figure 6
// scenario, shortened).
#include <cstdio>

#include "src/cluster/cluster.h"
#include "src/workload/tpcw.h"

namespace {

void PrintAllocation(const char* label, tashkent::Cluster& cluster,
                     const tashkent::Workload& w) {
  using namespace tashkent;
  MalbBalancer* malb = cluster.malb();
  std::printf("%s:\n", label);
  const auto ids = malb->GroupTypeIds();
  const auto counts = malb->GroupReplicaCounts();
  for (size_t g = 0; g < ids.size(); ++g) {
    std::printf("  %d replicas <- ", counts[g]);
    for (TxnTypeId t : ids[g]) {
      std::printf("%s ", w.registry.Get(t).name.c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace tashkent;
  const Workload w = BuildTpcw(kTpcwMediumEbs);

  ClusterConfig config;
  config.replicas = 16;
  config.clients_per_replica = 6;

  Cluster cluster(w, kTpcwShopping, "MALB-SC", config);

  cluster.Advance(Seconds(600.0));
  const ExperimentResult shopping = cluster.Measure(Seconds(300.0));
  std::printf("shopping mix: %.1f tps\n", shopping.tps);
  PrintAllocation("allocation under shopping", cluster, w);

  std::printf("\nswitching to browsing mix...\n");
  cluster.Apply(SwitchMix{kTpcwBrowsing});
  cluster.Advance(Seconds(600.0));
  const ExperimentResult browsing = cluster.Measure(Seconds(300.0));
  std::printf("browsing mix: %.1f tps\n", browsing.tps);
  PrintAllocation("allocation under browsing", cluster, w);

  std::printf("\nswitching back to shopping...\n");
  cluster.Apply(SwitchMix{kTpcwShopping});
  cluster.Advance(Seconds(600.0));
  const ExperimentResult shopping2 = cluster.Measure(Seconds(300.0));
  std::printf("shopping mix again: %.1f tps (recovered %.0f%% of the original)\n",
              shopping2.tps, 100.0 * shopping2.tps / shopping.tps);
  PrintAllocation("allocation after switching back", cluster, w);
  return 0;
}
