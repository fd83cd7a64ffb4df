#include "src/cluster/calibration.h"

#include <array>
#include <atomic>
#include <utility>

#include "src/common/worker_pool.h"

namespace tashkent {

namespace {

std::atomic<int> g_calibration_fanout{1};

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

// The closed-loop plateau is flat once the bottleneck saturates: the sweep
// stops at point i after two consecutive non-improvements. ONE predicate for
// both the sequential sweep and the parallel replay — the fan-out's
// exact-equality guarantee rests on the two paths sharing this rule.
bool SaturatedAt(const std::array<double, 12>& tps, size_t i) {
  return i >= 2 && tps[i] < 1.03 * tps[i - 1] && tps[i - 1] < 1.03 * tps[i - 2];
}

// Returns the index of the last point the sequential sweep would have
// computed, given the (deterministic, population-independent) per-point
// throughputs.
size_t SequentialStopIndex(const std::array<double, 12>& tps, size_t computed) {
  size_t last = 0;
  for (size_t i = 0; i < computed; ++i) {
    last = i;
    if (SaturatedAt(tps, i)) {
      break;
    }
  }
  return last;
}

}  // namespace

void SetCalibrationFanout(int jobs) { g_calibration_fanout.store(jobs < 1 ? 1 : jobs); }
int CalibrationFanout() { return g_calibration_fanout.load(); }

CalibrationResult CalibrateClientsPerReplica(const Workload& workload,
                                             const std::string& mix_name, ClusterConfig config,
                                             SimDuration warmup, SimDuration measure, int jobs) {
  // Geometric sweep of the client population against one standalone replica.
  static constexpr std::array<int, 12> kSweep = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

  std::array<double, 12> tps{};
  std::array<double, 12> resp{};
  size_t computed = 0;

  if (jobs <= 1) {
    // Sequential: stop after the plateau (the early exit skips the tail).
    for (size_t i = 0; i < kSweep.size(); ++i) {
      tps[i] = StandaloneTps(workload, mix_name, config, kSweep[i], warmup, measure, &resp[i]);
      computed = i + 1;
      if (SaturatedAt(tps, i)) {
        break;
      }
    }
  } else {
    // Parallel: every sweep point is an independent simulation, so compute
    // them all on the pool and replay the sequential stop rule afterwards —
    // points past the stop index are discarded, keeping the result equal to
    // the sequential sweep's.
    ParallelFor(jobs, kSweep.size(), [&](size_t i) {
      tps[i] = StandaloneTps(workload, mix_name, config, kSweep[i], warmup, measure, &resp[i]);
    });
    computed = kSweep.size();
  }

  const size_t last = SequentialStopIndex(tps, computed);

  CalibrationResult out;
  double peak = 0.0;
  for (size_t i = 0; i <= last; ++i) {
    peak = std::max(peak, tps[i]);
  }
  out.single_peak_tps = peak;
  for (size_t i = 0; i <= last; ++i) {
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
