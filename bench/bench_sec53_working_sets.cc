// Campaign "sec53" — Section 5.3's working-set estimates vs experimental
// measurement. The paper measures working sets "by dedicating transaction
// types to a single machine and adjusting the amount of free memory until the
// amount of disk I/O spiked". BestSeller: estimates 608/610 MB vs measured
// 600-650 MB; OrderDisplay: SCAP 1 MB vs SC 1600 MB vs measured 400-450 MB.
// (Section 5.3's merging ablation runs on Figure 3's configuration, so the
// `fig3` campaign reports it.)
//
// The knee measurement drives a single bare replica (below the Cluster
// layer), so the cells use the simulator directly via a bespoke run lambda.
#include "bench/bench_common.h"
#include "src/core/working_set.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }

// Measures one type's working set: run it alone on a single replica at a
// given memory size, report disk read KB per transaction. The knee of the
// resulting curve is the working-set size.
double DiskIoAt(const Workload& w, TxnTypeId type, Bytes memory) {
  ClusterConfig config = MakeClusterConfig(memory, 1);
  config.replica.reserved = 0;  // measure raw capacity
  Simulator sim;
  Certifier certifier;
  Replica replica(&sim, &w.schema, 0, config.replica, Rng(1234));
  Proxy proxy(&sim, &replica, &certifier);
  replica.StartDaemons();
  proxy.StartDaemons();

  const TxnType& t = w.registry.Get(type);
  int completed = 0;
  // Closed loop of 4 clients running only this type.
  std::function<void()> submit = [&]() {
    proxy.SubmitTransaction(t, [&](bool) {
      ++completed;
      sim.ScheduleAfter(Millis(100), submit);
    });
  };
  for (int c = 0; c < 4; ++c) {
    sim.ScheduleAfter(Millis(c * 25), submit);
  }
  sim.RunUntil(Seconds(150.0));
  replica.ResetStats();
  const int before = completed;
  sim.RunUntil(Seconds(600.0));
  const int measured = completed - before;
  if (measured == 0) {
    return 1e9;
  }
  return static_cast<double>(replica.stats().disk_read_bytes) / measured / 1024.0;
}

// Finds the memory size where disk I/O spikes: the smallest memory whose
// steady-state I/O stays near the fully-cached level.
double MeasureWorkingSetMb(const Workload& w, const char* name) {
  const TxnTypeId type = w.registry.Find(name);
  const double cached = DiskIoAt(w, type, 2048 * kMiB);
  double knee = 2048;
  for (Bytes mem = 1920 * kMiB; mem >= 128 * kMiB; mem -= 128 * kMiB) {
    const double io = DiskIoAt(w, type, mem);
    if (io > 2.0 * cached + 8.0) {
      break;  // I/O spiked: the previous memory size was the working set
    }
    knee = BytesToMiB(mem);
  }
  return knee;
}

// One cell per measured transaction type: estimates plus the measured knee,
// reported as scalars.
CampaignCell KneeCell(const char* type_name) {
  CampaignCell cell;
  cell.id = std::string("knee/") + type_name;
  cell.run = [type_name](uint64_t /*seed*/) {
    // The knee rig is internally seeded (Rng(1234)); the campaign seed is
    // unused so the measured knee matches the paper methodology exactly.
    const Workload w = Mid();
    const auto ws = BuildWorkingSets(w.registry, w.schema);
    const TxnTypeId id = w.registry.Find(type_name);
    const auto& t = ws[id];
    CellOutput out;
    out.workload = w.name;
    out.scalars.emplace_back(
        std::string(type_name) + " SCAP est MB",
        BytesToMiB(PagesToBytes(t.EstimatePages(EstimationMethod::kSizeContentAccess))));
    out.scalars.emplace_back(
        std::string(type_name) + " SC est MB",
        BytesToMiB(PagesToBytes(t.EstimatePages(EstimationMethod::kSizeContent))));
    out.scalars.emplace_back(std::string(type_name) + " measured knee MB",
                             MeasureWorkingSetMb(w, type_name));
    return out;
  };
  return cell;
}

std::vector<CampaignCell> Cells() { return {KneeCell("BestSeller"), KneeCell("OrderDisplay")}; }

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Section 5.3: working-set estimates vs measurement", "MidDB 1.8GB");
  out.Note("paper: BestSeller SCAP 610 / SC 608 / measured 600-650 MB; "
           "OrderDisplay SCAP 1 / SC 1600 / measured 400-450 MB");
  for (const char* name : {"BestSeller", "OrderDisplay"}) {
    for (const auto& [key, value] : r.Get(std::string("knee/") + name).scalars) {
      out.AddScalar(key, value);
    }
  }
}

RegisterCampaign sec53{{"sec53", "", "Section 5.3: working-set estimates vs measurement",
                        "MidDB 1.8GB", Cells, Report}};

}  // namespace
}  // namespace tashkent
