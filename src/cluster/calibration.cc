#include "src/cluster/calibration.h"

#include <algorithm>
#include <array>
#include <utility>

namespace tashkent {

namespace {

double StandaloneTps(const Workload& workload, const std::string& mix_name,
                     ClusterConfig config, int clients, SimDuration warmup, SimDuration measure,
                     double* response_s) {
  const ExperimentResult r =
      RunStandalone(workload, mix_name, std::move(config), clients, warmup, measure)
          .ByLabel("measure");
  if (response_s != nullptr) {
    *response_s = r.mean_response_s;
  }
  return r.tps;
}

}  // namespace

CalibrationResult CalibrateClientsPerReplica(const Workload& workload,
                                             const std::string& mix_name, ClusterConfig config,
                                             SimDuration warmup, SimDuration measure,
                                             int /*jobs*/) {
  // Geometric sweep of the client population against one standalone replica.
  static constexpr std::array<int, 12> kSweep = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

  std::array<double, 12> tps{};
  std::array<double, 12> resp{};
  // The closed-loop plateau is flat once the bottleneck saturates: the sweep
  // stops after two consecutive non-improvements.
  size_t points = 0;
  while (points < kSweep.size()) {
    const size_t i = points++;
    tps[i] = StandaloneTps(workload, mix_name, config, kSweep[i], warmup, measure, &resp[i]);
    if (i >= 2 && tps[i] < 1.03 * tps[i - 1] && tps[i - 1] < 1.03 * tps[i - 2]) {
      break;
    }
  }

  CalibrationResult out;
  double peak = 0.0;
  for (size_t i = 0; i < points; ++i) {
    peak = std::max(peak, tps[i]);
  }
  out.single_peak_tps = peak;
  for (size_t i = 0; i < points; ++i) {
    if (tps[i] >= 0.85 * peak) {
      out.clients_per_replica = kSweep[i];
      out.single_85_tps = tps[i];
      // Response time at the chosen population, captured during the sweep
      // (re-running the same deterministic simulation would reproduce it
      // exactly, so the old re-measure run is dropped).
      out.single_response_s = resp[i];
      break;
    }
  }
  return out;
}

ScenarioResult RunStandalone(const Workload& workload, const std::string& mix_name,
                             ClusterConfig config, int clients, SimDuration warmup,
                             SimDuration measure) {
  config.replicas = 1;
  config.clients_per_replica = clients;
  return ScenarioBuilder()
      .Warmup(warmup)
      .Measure(measure, "measure")
      .Run(workload, mix_name, "LeastConnections", config);
}

}  // namespace tashkent
