// The calibration rule (Section 4.4): sweep the client population against a
// standalone replica until the throughput plateaus, then choose the smallest
// swept population reaching 85% of the peak. The test re-runs the sweep
// point by point through RunStandalone (every point is a deterministic,
// self-seeded simulation) and derives the expected choice itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/calibration.h"
#include "src/cluster/experiment.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

// The swept populations, in sweep order.
constexpr int kSweep[] = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

TEST(Calibration, ChoosesSmallestSweptPopulationReaching85PercentOfPeak) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ClusterConfig config = MakeClusterConfig(256 * kMiB);
  // Short windows keep the test quick; the rule holds for any windows.
  const SimDuration warmup = Seconds(4.0);
  const SimDuration measure = Seconds(8.0);

  const CalibrationResult got =
      CalibrateClientsPerReplica(w, kTpcwOrdering, config, warmup, measure);

  // The sweep stops at the plateau: after two consecutive points that each
  // gain less than 3%.
  std::vector<double> tps;
  std::vector<double> response;
  for (const int clients : kSweep) {
    const ExperimentResult r =
        RunStandalone(w, kTpcwOrdering, config, clients, warmup, measure).ByLabel("measure");
    tps.push_back(r.tps);
    response.push_back(r.mean_response_s);
    const size_t i = tps.size() - 1;
    if (i >= 2 && tps[i] < 1.03 * tps[i - 1] && tps[i - 1] < 1.03 * tps[i - 2]) {
      break;
    }
  }
  ASSERT_LT(tps.size(), std::size(kSweep)) << "the sweep never reached its plateau";
  const double peak = *std::max_element(tps.begin(), tps.end());
  size_t chosen = 0;
  while (tps[chosen] < 0.85 * peak) {
    ++chosen;
  }
  // A population below the peak's: the rule picks the knee, not the peak.
  ASSERT_GT(chosen, 0u);

  EXPECT_EQ(got.clients_per_replica, kSweep[chosen]);
  EXPECT_EQ(got.single_peak_tps, peak);  // bitwise: the same simulations
  EXPECT_EQ(got.single_85_tps, tps[chosen]);
  EXPECT_EQ(got.single_response_s, response[chosen]);
}

}  // namespace
}  // namespace tashkent
