// Campaign "fig6" — Figure 6: dynamic reconfiguration under a mix change.
// TPC-W switches shopping -> browsing -> shopping every 2000 s.
// Paper: MALB-SC tracks ~76 tps under shopping and ~45 tps under browsing;
// a static shopping configuration forced to run browsing achieves only
// 19 tps — worse than LeastConnections' 37 — so dynamic allocation is
// necessary.
//
// Three independent ScenarioCell scripts; phase means are read off the
// merged scenario timelines in the report stage.
#include "bench/bench_common.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

constexpr SimDuration kPhase = Seconds(2000.0);
// Phase means skip the first 300 s of each phase so the reconfiguration
// transient does not dilute the steady-state number.
constexpr double kTransientSkipS = 300.0;

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }

std::vector<CampaignCell> Cells() {
  return {
      // Dynamic MALB-SC through the mix switches.
      bench::ScenarioCell("dynamic", Mid, kTpcwShopping, "MALB-SC",
                          ScenarioBuilder()
                              .Advance(kPhase)
                              .Do(SwitchMix{kTpcwBrowsing})
                              .Advance(kPhase)
                              .Do(SwitchMix{kTpcwShopping})
                              .Measure(kPhase, "shopping-return")),
      // Static shopping configuration forced to run browsing.
      bench::ScenarioCell("frozen", Mid, kTpcwShopping, "MALB-SC",
                          ScenarioBuilder()
                              .Advance(Seconds(1500.0))  // converge on shopping
                              .Do(FreezeAllocation{})
                              .Do(SwitchMix{kTpcwBrowsing})
                              .Advance(Seconds(300.0))
                              .Measure(Seconds(1200.0), "static-browsing")),
      // LeastConnections reference under browsing. Calibrated on shopping
      // like the other two cells (the paper drives the whole figure with one
      // client population).
      bench::ScenarioCell("lc-browsing", Mid, kTpcwBrowsing, "LeastConnections",
                          ScenarioBuilder()
                              .Warmup(Seconds(400.0))
                              .Measure(Seconds(1200.0), "browsing"),
                          [] {
                            bench::CellOptions opts;
                            opts.calibrate_mix = kTpcwShopping;
                            return opts;
                          }()),
  };
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  const ScenarioResult& dynamic = r.Get("dynamic").scenario;
  const double shopping1 = dynamic.PhaseMeanTps(0, 2000, kTransientSkipS);
  const double browsing = dynamic.PhaseMeanTps(2000, 4000, kTransientSkipS);
  const double shopping2 = dynamic.PhaseMeanTps(4000, 6000, kTransientSkipS);
  const ExperimentResult& static_browsing = r.Result("frozen", "static-browsing");

  out.Begin("Figure 6: dynamic reconfiguration (shopping -> browsing -> shopping)",
            "MidDB 1.8GB, RAM 512MB, 16 replicas; 2000 s per phase");
  out.AddScalar("MALB-SC shopping phase 1 tps (paper 76)", shopping1);
  out.AddScalar("MALB-SC browsing phase 2 tps (paper 45)", browsing);
  out.AddScalar("MALB-SC shopping phase 3 tps (paper 76)", shopping2);
  // The phase-3 measure window (full phase, transient included) as a run row.
  out.AddRun(bench::RecOf("MALB-SC shopping-return (phase 3 window)", r.Get("dynamic"), 76,
                          0, 0, "shopping-return"));
  out.AddRun(bench::RecOf("static shopping cfg, browsing", r.Get("frozen"), 19, 0, 0,
                          "static-browsing"));
  out.AddRun(
      bench::RecOf("LeastConnections, browsing", r.Get("lc-browsing"), 37, 0, 0, "browsing"));
  out.AddRatio("static / dynamic browsing (paper 0.42)", 19.0 / 45.0,
               browsing > 0 ? static_browsing.tps / browsing : 0.0);
  out.AddTimeline("MALB-SC throughput timeline", dynamic.timeline);
}

RegisterCampaign fig6{{"fig6", "Figure 6",
                       "dynamic reconfiguration (shopping -> browsing -> shopping)",
                       "MidDB 1.8GB, RAM 512MB, 16 replicas; 2000 s per phase", Cells,
                       Report}};

}  // namespace
}  // namespace tashkent
