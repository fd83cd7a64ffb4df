// Experiment methodology helpers (Section 4.4).
//
// The paper loads each experiment with "the number of clients per replica
// needed to generate 85% of the peak throughput of a standalone database".
// CalibrateClientsPerReplica reproduces that procedure in simulation: sweep
// the client population against a single replica, find the throughput
// plateau, return the smallest population reaching 85% of it.
#ifndef SRC_CLUSTER_CALIBRATION_H_
#define SRC_CLUSTER_CALIBRATION_H_

#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/scenario.h"
#include "src/workload/workload.h"

namespace tashkent {

struct CalibrationResult {
  int clients_per_replica = 1;
  double single_peak_tps = 0.0;   // standalone peak throughput
  double single_85_tps = 0.0;     // throughput at the chosen population
  double single_response_s = 0.0; // response time at the chosen population
};

// Runs standalone-database sweeps. `config.replicas` is ignored (forced to 1).
// The sweep runs the swept populations in order and stops at the plateau,
// after two consecutive points that each gain less than 3%; the result is
// the smallest swept population reaching 85% of the peak among the points
// run. `jobs` is unused: the sweep always runs in the calling thread.
CalibrationResult CalibrateClientsPerReplica(const Workload& workload,
                                             const std::string& mix_name,
                                             ClusterConfig config,
                                             SimDuration warmup = Seconds(40.0),
                                             SimDuration measure = Seconds(80.0),
                                             int jobs = 1);

// Convenience: one standalone run at a given client count (the "Single" bar
// of Figures 3, 4 and 7): one LeastConnections replica, scripted as
// Warmup(warmup) + Measure(measure, "measure").
ScenarioResult RunStandalone(const Workload& workload, const std::string& mix_name,
                             ClusterConfig config, int clients,
                             SimDuration warmup = Seconds(60.0),
                             SimDuration measure = Seconds(120.0));

}  // namespace tashkent

#endif  // SRC_CLUSTER_CALIBRATION_H_
