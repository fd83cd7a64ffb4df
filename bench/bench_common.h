// Shared helpers for the campaign files behind the `tashkent_bench` binary.
//
// Every paper figure/table is a registered Campaign (src/cluster/campaign.h):
// a cells() factory expanding the sweep grid into independent cells and a
// report() stage emitting the paper-vs-measured tables. A campaign file is a
// translation unit of the shape
//
//   static std::vector<CampaignCell> Cells() {
//     return {bench::PolicyCell("lc", &Mid, kTpcwOrdering, "LeastConnections"), ...};
//   }
//   static void Report(const CampaignOutputs& r, ResultSink& out) {
//     out.Begin("Figure 3: ...", "MidDB 1.8GB, ...");
//     out.AddRun(bench::RecOf("LeastConnections", r.Get("lc"), 37, 12, 72));
//     ...
//   }
//   static RegisterCampaign fig3{{"fig3", "Figure 3", "<title>", "<setup>", Cells, Report}};
//
// A campaign owns one paper configuration's runs and every artifact computed
// from them: when several figures or tables report the same configuration
// (Figures 3, 5, 7 and Tables 1, 5 all run TPC-W MidDB at 512 MB), one
// campaign runs each cell once and reports all of them, so every artifact
// reads the same runs. Campaigns never read each other's cells.
//
// The helpers below build the common cell shapes. Cell `run` lambdas execute
// on worker threads: they derive every stream from the seed they are handed
// and share no mutable state (see the determinism contract in campaign.h).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/campaign.h"
#include "src/cluster/experiment.h"
#include "src/cluster/scenario.h"
#include "src/cluster/sink.h"

namespace tashkent {
namespace bench {

// Builds the cell's workload inside the worker (Workload is cheap to build
// and cells must not share one across threads). Plain function pointers like
// `+[]{ return BuildTpcw(kTpcwMediumEbs); }` are the common case.
using WorkloadFactory = std::function<Workload()>;

// Knobs shared by the cell builders; defaults are the paper's standard
// configuration (512 MB replicas, 16 of them, 240 s + 240 s windows,
// calibrated client population).
struct CellOptions {
  Bytes ram = 512 * kMiB;
  size_t replicas = 16;
  bool filtering = false;  // enable MALB update filtering (dynamic mode)
  SimDuration warmup = Seconds(240.0);
  SimDuration measure = Seconds(240.0);
  int clients = 0;  // 0 = calibrate per the paper's 85%-of-peak methodology
  // Mix used for calibration when it must differ from the cell's running mix
  // (empty = same). Figure 6 compares a browsing run against cells calibrated
  // on shopping, so all three share one client population.
  std::string calibrate_mix;
  // Last-chance config hook for one-off knobs (ablations).
  std::function<void(ClusterConfig&)> tweak;
};

// "512MB"-style label used in cell ids and table rows; campaigns must share
// one spelling because cell ids are derived from it.
inline std::string RamLabel(Bytes ram) {
  return std::to_string(static_cast<long long>(ram / kMiB)) + "MB";
}

// Enables update filtering on a config (dynamic-allocation variant; see
// DESIGN.md for the deviation note).
inline ClusterConfig WithFiltering(ClusterConfig config) {
  config.malb.update_filtering = true;
  config.malb.stable_ticks_for_filtering = 10;
  return config;
}

inline ClusterConfig CellConfig(uint64_t seed, const CellOptions& opts) {
  ClusterConfig config = MakeClusterConfig(opts.ram, opts.replicas, seed);
  if (opts.filtering) {
    config = WithFiltering(config);
  }
  if (opts.tweak) {
    opts.tweak(config);
  }
  return config;
}

// The cell's client population: opts.clients, or the calibrated count for the
// calibration mix (the cell's own mix unless opts.calibrate_mix is set).
inline int CellClients(const Workload& w, const std::string& mix, const ClusterConfig& config,
                       const CellOptions& opts) {
  if (opts.clients > 0) {
    return opts.clients;
  }
  return CalibratedClients(w, opts.calibrate_mix.empty() ? mix : opts.calibrate_mix, config);
}

// One standalone-database run (the "Single" bar of Figures 3, 4 and 7): a
// single-measure scenario, so reports read it like any cell. `policy` stays
// empty, which is how its run records are spelled.
inline CampaignCell StandaloneCell(std::string id, WorkloadFactory wf, std::string mix,
                                   CellOptions opts = {}) {
  CampaignCell cell;
  cell.id = std::move(id);
  cell.run = [wf = std::move(wf), mix = std::move(mix), opts = std::move(opts)](uint64_t seed) {
    const Workload w = wf();
    ClusterConfig config = CellConfig(seed, opts);
    const int clients = CellClients(w, mix, config, opts);
    CellOutput out;
    out.workload = w.name;
    out.mix = mix;
    out.scenario = RunStandalone(w, mix, config, clients, opts.warmup, opts.measure);
    out.executed_events = out.scenario.executed_events;
    return out;
  };
  return cell;
}

// A scripted multi-phase run (Figure 6 shapes). `mix` is the starting mix
// (used for calibration and cluster construction); the scenario's phases may
// switch it. Results carry the scenario's own measure labels.
inline CampaignCell ScenarioCell(std::string id, WorkloadFactory wf, std::string mix,
                                 std::string policy, ScenarioBuilder scenario,
                                 CellOptions opts = {}) {
  CampaignCell cell;
  cell.id = std::move(id);
  cell.run = [wf = std::move(wf), mix = std::move(mix), policy = std::move(policy),
              scenario = std::move(scenario), opts = std::move(opts)](uint64_t seed) {
    const Workload w = wf();
    ClusterConfig config = CellConfig(seed, opts);
    config.clients_per_replica = CellClients(w, mix, config, opts);
    CellOutput out;
    out.workload = w.name;
    out.mix = mix;
    out.policy = policy;
    out.scenario = scenario.Run(w, mix, policy, config);
    out.executed_events = out.scenario.executed_events;
    return out;
  };
  return cell;
}

// One warmup+measure run of `policy`; the result is labeled "measure".
inline CampaignCell PolicyCell(std::string id, WorkloadFactory wf, std::string mix,
                               std::string policy, CellOptions opts = {}) {
  return ScenarioCell(std::move(id), std::move(wf), std::move(mix), std::move(policy),
                      ScenarioBuilder().Warmup(opts.warmup).Measure(opts.measure, "measure"),
                      opts);
}

// Throws std::runtime_error naming the first metric on which `a` and `b`
// differ (DifferingMetrics: every metric, exact ==). `context` names the pair
// in the message.
inline void RequireIdentical(const ExperimentResult& a, const ExperimentResult& b,
                             const std::string& context) {
  const std::vector<std::string> differing = DifferingMetrics(a, b);
  if (!differing.empty()) {
    throw std::runtime_error(context + " differ on '" + differing.front() + "'");
  }
}

// Builds the RunRecord table row for a cell's measure window.
inline RunRecord RecOf(std::string label, const CellOutput& cell, double paper_tps = 0.0,
                       double paper_write_kb = 0.0, double paper_read_kb = 0.0,
                       const std::string& measure_label = "measure") {
  RunRecord r;
  r.label = std::move(label);
  r.policy = cell.policy;
  r.workload = cell.workload;
  r.mix = cell.mix;
  r.paper_tps = paper_tps;
  r.paper_write_kb = paper_write_kb;
  r.paper_read_kb = paper_read_kb;
  r.result = cell.Result(measure_label);
  return r;
}

// Builds a RunRecord from loose pieces (cells that measure below the Cluster
// layer, e.g. the Section 5.3 knee rig).
inline RunRecord Rec(std::string label, std::string policy, std::string workload,
                     std::string mix, ExperimentResult result, double paper_tps = 0.0,
                     double paper_write_kb = 0.0, double paper_read_kb = 0.0) {
  RunRecord r;
  r.label = std::move(label);
  r.policy = std::move(policy);
  r.workload = std::move(workload);
  r.mix = std::move(mix);
  r.paper_tps = paper_tps;
  r.paper_write_kb = paper_write_kb;
  r.paper_read_kb = paper_read_kb;
  r.result = std::move(result);
  return r;
}

}  // namespace bench
}  // namespace tashkent

#endif  // BENCH_BENCH_COMMON_H_
