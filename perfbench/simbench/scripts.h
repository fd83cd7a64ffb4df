// The benchmark's fixed workload scripts.
//
// A script is everything one repetition needs: which workload and mix to
// build, the cluster shape, how the client population is chosen, the
// simulated length, the slice simbench steps by, and the verbs that fire
// inside the run (a replica outage, a population step). Policy is MALB-SC
// throughout. The seed is not part of the script; it comes from the command
// line.
#ifndef PERFBENCH_SIMBENCH_SCRIPTS_H_
#define PERFBENCH_SIMBENCH_SCRIPTS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/workload/workload.h"

namespace perfbench {

struct Script {
  std::string name;
  tashkent::Workload (*build)();
  std::string mix;
  size_t replicas = 0;
  tashkent::Bytes ram = 0;
  // true: clients per replica come from the paper's 85%-of-standalone-peak
  // calibration, rerun cold in every repetition (it is part of set-up).
  bool calibrate = false;
  int clients_per_replica = 0;  // used when !calibrate
  bool fluid_clients = false;
  tashkent::SimDuration think = 0;
  // MALB update filtering, engaging after the library's default number of
  // stable allocation ticks.
  bool update_filtering = false;
  tashkent::SimDuration length = 0;
  tashkent::SimDuration slice = 0;
  // Replica `victim` is killed a third of the way in and recovered
  // `outage` later.
  bool churn = false;
  size_t victim = 0;
  tashkent::SimDuration outage = 0;
  // Population retarget at half-length (0 = none).
  size_t population_step = 0;
};

const std::vector<Script>& Scripts();

// Returns nullptr for an unknown name.
const Script* FindScript(const std::string& name);

// The script with its length (and the instants of its verbs, which are
// fractions of the length) scaled by `scale`; the outage length and the
// slice stay fixed. Used by the reduced-length self-test runs.
Script Scaled(const Script& script, double scale);

}  // namespace perfbench

#endif  // PERFBENCH_SIMBENCH_SCRIPTS_H_
