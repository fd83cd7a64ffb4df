#include "simbench/scripts.h"

#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace perfbench {

using tashkent::kMiB;
using tashkent::Seconds;

namespace {

tashkent::Workload TpcwMid() { return tashkent::BuildTpcw(tashkent::kTpcwMediumEbs); }
tashkent::Workload Rubis() { return tashkent::BuildRubis(); }

std::vector<Script> MakeScripts() {
  std::vector<Script> scripts;

  // Read path: the 1.8 GB database is 4x a replica's usable pool, so page
  // reads, misses and evictions do most of the work; 5% updates leave the
  // certifier nearly idle.
  Script browse;
  browse.name = "tpcw-browse-mid";
  browse.build = TpcwMid;
  browse.mix = tashkent::kTpcwBrowsing;
  browse.replicas = 32;
  browse.ram = 512 * kMiB;
  browse.calibrate = true;
  browse.think = Seconds(0.5);
  browse.length = Seconds(1200.0);
  browse.slice = Seconds(10.0);
  scripts.push_back(browse);

  // Write path: 50% updates with MALB update filtering, and one replica
  // outage, so certification, writeset propagation, filtering, recovery
  // replay and auto-prune all run, and the pool serves writes beside reads.
  Script order;
  order.name = "tpcw-order-uf-churn";
  order.build = TpcwMid;
  order.mix = tashkent::kTpcwOrdering;
  order.replicas = 32;
  order.ram = 512 * kMiB;
  order.calibrate = true;
  order.think = Seconds(0.5);
  order.update_filtering = true;
  order.length = Seconds(1200.0);
  order.slice = Seconds(10.0);
  order.churn = true;
  order.victim = 1;
  order.outage = Seconds(60.0);
  scripts.push_back(order);

  // Scale: 256 replicas, a read-only 2.2 GB database 12x the pool, and a
  // fluid client population of ~500k that doubles to 1M mid-run.
  Script rubis;
  rubis.name = "rubis-flash-256r";
  rubis.build = Rubis;
  rubis.mix = tashkent::kRubisBrowsing;
  rubis.replicas = 256;
  rubis.ram = 256 * kMiB;
  rubis.clients_per_replica = 1954;  // 1954 x 256 ~= 500k
  rubis.fluid_clients = true;
  rubis.think = Seconds(500.0);
  rubis.length = Seconds(200.0);
  rubis.slice = Seconds(2.0);
  rubis.population_step = 1000000;
  scripts.push_back(rubis);

  return scripts;
}

}  // namespace

const std::vector<Script>& Scripts() {
  static const std::vector<Script> scripts = MakeScripts();
  return scripts;
}

const Script* FindScript(const std::string& name) {
  for (const Script& s : Scripts()) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

Script Scaled(const Script& script, double scale) {
  Script out = script;
  out.length = static_cast<tashkent::SimDuration>(static_cast<double>(script.length) * scale);
  return out;
}

}  // namespace perfbench
