// Campaign "smoke" — a fast end-to-end exercise of the campaign machinery
// for CI: small cluster, short windows, fixed client population (no
// calibration sweep). It touches every cell shape — policy cells, a
// standalone cell, and a scripted scenario with a mix switch — so a green
// smoke run means the grid expansion, worker pool, sinks, and manifest all
// work. Not a paper reproduction; expect no particular numbers.
#include "bench/bench_common.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Small() { return BuildTpcw(kTpcwSmallEbs); }

bench::CellOptions SmokeOptions() {
  bench::CellOptions opts;
  opts.ram = 256 * kMiB;
  opts.replicas = 4;
  opts.clients = 4;  // fixed: smoke must not pay the calibration sweep
  opts.warmup = Seconds(30.0);
  opts.measure = Seconds(60.0);
  return opts;
}

std::vector<CampaignCell> Cells() {
  const bench::CellOptions opts = SmokeOptions();
  return {
      bench::StandaloneCell("single", Small, kTpcwOrdering, opts),
      bench::PolicyCell("lc", Small, kTpcwOrdering, "LeastConnections", opts),
      bench::PolicyCell("malb-sc", Small, kTpcwOrdering, "MALB-SC", opts),
      bench::ScenarioCell("mix-switch", Small, kTpcwOrdering, "MALB-SC",
                          ScenarioBuilder()
                              .Warmup(Seconds(30.0))
                              .Measure(Seconds(60.0), "ordering")
                              .Do(SwitchMix{kTpcwBrowsing})
                              .Advance(Seconds(30.0))
                              .Measure(Seconds(60.0), "browsing"),
                          opts),
      // Small marathon cell: churn + a checkpoint join under the default
      // auto-pruning policy, so the golden digest pins the bounded-log and
      // state-transfer paths (log_chunks_hwm / arena_bytes_hwm /
      // join_latency_s columns) byte-for-byte.
      bench::ScenarioCell("marathon-smoke", Small, kTpcwOrdering, "MALB-SC",
                          ScenarioBuilder()
                              .Warmup(Seconds(30.0))
                              .At(Seconds(10.0), KillReplica{1})
                              .At(Seconds(40.0), RecoverReplica{1})
                              .Measure(Seconds(90.0), "churn")
                              .At(Seconds(10.0), AddReplica{})
                              .Measure(Seconds(90.0), "join"),
                          opts),
  };
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  const ExperimentResult& lc = r.Result("lc");
  const ExperimentResult& malb = r.Result("malb-sc");

  out.Begin("Smoke: campaign machinery end-to-end",
            "SmallDB 0.7GB, RAM 256MB, 4 replicas, 4 clients/replica");
  out.AddRun(bench::RecOf("Single", r.Get("single")));
  out.AddRun(bench::RecOf("LeastConnections", r.Get("lc")));
  out.AddRun(bench::RecOf("MALB-SC", r.Get("malb-sc")));
  out.AddRun(bench::RecOf("MALB-SC ordering window", r.Get("mix-switch"), 0, 0, 0, "ordering"));
  out.AddRun(bench::RecOf("MALB-SC browsing window", r.Get("mix-switch"), 0, 0, 0, "browsing"));
  const CellOutput& marathon = r.Get("marathon-smoke");
  out.AddRun(bench::RecOf("marathon churn window", marathon, 0, 0, 0, "churn"));
  out.AddRun(bench::RecOf("marathon join window", marathon, 0, 0, 0, "join"));
  out.AddScalar("MALB-SC / LC speedup", lc.tps > 0 ? malb.tps / lc.tps : 0.0);
  out.AddScalar("marathon-smoke log chunks hwm",
                static_cast<double>(marathon.Result("join").log_chunks_hwm));
}

RegisterCampaign smoke{{"smoke", "", "Smoke: campaign machinery end-to-end",
                        "SmallDB 0.7GB, RAM 256MB, 4 replicas, 4 clients/replica", Cells,
                        Report}};

}  // namespace
}  // namespace tashkent
