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
//
// `jobs` > 1 fans the sweep's standalone clusters out on the worker pool
// (src/common/worker_pool.h): every sweep point is an independent,
// self-seeded simulation, so the parallel path computes the same per-point
// throughputs and then REPLAYS the sequential early-exit rule over them —
// the chosen population, peak, and response time are exactly equal to the
// jobs == 1 result (tests/calibration_test.cc pins the equality). The
// trade: parallel runs may compute sweep points the sequential early exit
// would have skipped, buying wall time with extra CPU.
CalibrationResult CalibrateClientsPerReplica(const Workload& workload,
                                             const std::string& mix_name,
                                             ClusterConfig config,
                                             SimDuration warmup = Seconds(40.0),
                                             SimDuration measure = Seconds(80.0),
                                             int jobs = 1);

// Process-wide default fan-out used by CalibratedClients (experiment.h):
// RunCampaigns sets it from --jobs so calibration sweeps inside one campaign
// cell use the same worker budget as the cell grid. Purely a wall-clock
// knob — results are fan-out-independent (see above).
void SetCalibrationFanout(int jobs);
int CalibrationFanout();

// Convenience: one standalone run at a given client count (the "Single" bar
// of Figures 3, 4 and 7): one LeastConnections replica, scripted as
// Warmup(warmup) + Measure(measure, "measure").
ScenarioResult RunStandalone(const Workload& workload, const std::string& mix_name,
                             ClusterConfig config, int clients,
                             SimDuration warmup = Seconds(60.0),
                             SimDuration measure = Seconds(120.0));

}  // namespace tashkent

#endif  // SRC_CLUSTER_CALIBRATION_H_
