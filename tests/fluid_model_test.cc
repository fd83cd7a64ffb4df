// Differential harness for the fluid client model (src/workload/fluid_pool.h).
//
// The fluid model's fidelity contract (docs/ARCHITECTURE.md, "Fluid client
// model — fidelity contract") has three legs, each pinned here:
//
//   1. Law-equivalence at small N: on the same configuration and seed sweep,
//      the fluid model must match the per-client model on throughput, abort
//      rate, miss rate and mean response within pinned tolerances. It is NOT
//      bit-identical (the two models consume the RNG stream differently) —
//      the tolerances are the contract.
//   2. Degenerate parameters are inert: a cluster armed with every new knob
//      at its do-nothing value (workload skew == replica default, zipf_s 0,
//      SetPopulation restating the current population, SwitchMix to the
//      active mix) renders a run record equal, value for value, to that of
//      a cluster that never touched the new surface.
//   3. Determinism at scale: the `skew` campaign — including the
//      256-replica / 1M-client flash-crowd cell — produces identical
//      stripped JSON under --jobs 1 and --jobs 4.
//
// Compiled together with bench/bench_skew.cc (see CMakeLists.txt) so the
// real registered campaign runs in-process for leg 3.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "src/cluster/campaign.h"
#include "src/cluster/experiment.h"
#include "src/cluster/scenario.h"
#include "src/cluster/sink.h"
#include "src/common/json.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

struct ModelRates {
  double tps = 0.0;
  double abort_rate = 0.0;
  double miss_rate = 0.0;
  double mean_response_s = 0.0;
  ExperimentResult result;
};

// One small-N run: 4 replicas, 24 clients, TPC-W small, MALB-SC — the same
// shape as the smoke campaign, where both models are cheap enough for a
// seed sweep.
ModelRates RunModel(bool fluid, uint64_t seed) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = MakeClusterConfig(256 * kMiB, 4, seed);
  config.clients_per_replica = 6;
  config.fluid_clients = fluid;
  ScenarioResult scenario = ScenarioBuilder()
                                .Warmup(Seconds(60.0))
                                .Measure(Seconds(240.0), "measure")
                                .Run(w, kTpcwOrdering, "MALB-SC", config);
  ModelRates out;
  out.result = scenario.ByLabel("measure");
  out.tps = out.result.tps;
  const double attempts = static_cast<double>(out.result.committed + out.result.aborted);
  out.abort_rate = attempts > 0 ? static_cast<double>(out.result.aborted) / attempts : 0.0;
  out.miss_rate = out.result.miss_rate;
  out.mean_response_s = out.result.mean_response_s;
  return out;
}

double RelDiff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom > 0 ? std::abs(a - b) / denom : 0.0;
}

// --- leg 1: law-equivalence at small N --------------------------------------

TEST(FluidModel, MatchesPerClientModelAcrossSeeds) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const ModelRates per_client = RunModel(false, seed);
    const ModelRates fluid = RunModel(true, seed);
    ASSERT_GT(per_client.result.committed, 500u) << "seed " << seed;
    ASSERT_GT(fluid.result.committed, 500u) << "seed " << seed;

    // Pinned tolerances: both models sample the same closed-loop law, so
    // after 240 s of measurement the throughput estimates differ only by
    // sampling noise. 10% relative on tps, 0.05 absolute on the rates.
    EXPECT_LT(RelDiff(per_client.tps, fluid.tps), 0.10)
        << "seed " << seed << ": per-client " << per_client.tps << " tps vs fluid "
        << fluid.tps << " tps";
    EXPECT_LT(std::abs(per_client.abort_rate - fluid.abort_rate), 0.05)
        << "seed " << seed << ": abort rates " << per_client.abort_rate << " vs "
        << fluid.abort_rate;
    EXPECT_LT(std::abs(per_client.miss_rate - fluid.miss_rate), 0.05)
        << "seed " << seed << ": miss rates " << per_client.miss_rate << " vs "
        << fluid.miss_rate;
    EXPECT_LT(RelDiff(per_client.mean_response_s, fluid.mean_response_s), 0.20)
        << "seed " << seed << ": mean response " << per_client.mean_response_s << " s vs "
        << fluid.mean_response_s << " s";

    // The result records must agree on the model metadata.
    EXPECT_FALSE(per_client.result.fluid);
    EXPECT_TRUE(fluid.result.fluid);
    EXPECT_EQ(per_client.result.clients_modeled, fluid.result.clients_modeled);
  }
}

// Little's law for the closed loop: population = tps * (think + response).
// The fluid model tracks busy/idle explicitly, so a bookkeeping bug (a lost
// busy decrement, a missed reschedule) breaks this identity immediately.
TEST(FluidModel, SatisfiesLittlesLaw) {
  const ModelRates fluid = RunModel(true, 7);
  const double think_s = 0.5;  // MakeClusterConfig default mean_think
  const double population = 24.0;
  const double implied = fluid.tps * (think_s + fluid.mean_response_s);
  EXPECT_GT(implied, 0.85 * population);
  EXPECT_LT(implied, 1.15 * population);
}

// Doubling an unsaturated population roughly doubles throughput; the ratio
// pins SetPopulation's arrival-rate retargeting (a stale idle count would
// leave the ratio at ~1).
TEST(FluidModel, SetPopulationRetargetsArrivalRate) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = MakeClusterConfig(256 * kMiB, 4, 11);
  config.clients_per_replica = 4;  // 16 clients at a 2 s think: far from saturation
  config.mean_think = Seconds(2.0);
  config.fluid_clients = true;
  ScenarioResult scenario = ScenarioBuilder()
                                .Warmup(Seconds(30.0))
                                .Measure(Seconds(60.0), "base")
                                .Do(SetPopulation{32})
                                .Advance(Seconds(10.0))
                                .Measure(Seconds(60.0), "doubled")
                                .Run(w, kTpcwOrdering, "MALB-SC", config);
  const double base = scenario.ByLabel("base").tps;
  const double doubled = scenario.ByLabel("doubled").tps;
  ASSERT_GT(base, 0.0);
  EXPECT_GT(doubled / base, 1.5);
  EXPECT_LT(doubled / base, 2.5);
  EXPECT_EQ(scenario.ByLabel("base").clients_modeled, 16u);
  EXPECT_EQ(scenario.ByLabel("doubled").clients_modeled, 32u);
}

// --- leg 2: degenerate parameters are byte-inert ----------------------------

// The run object ToJson writes for `result`.
json::Value RenderSingleRun(const ExperimentResult& result) {
  ResultSink sink;
  sink.Begin("inert", "setup");
  RunRecord rec;
  rec.label = "run";
  rec.policy = "MALB-SC";
  rec.workload = "TPC-W";
  rec.mix = kTpcwOrdering;
  rec.result = result;
  sink.AddRun(rec);
  return ToJson(sink).At("runs").Items().at(0);
}

TEST(FluidModel, DegenerateParametersRenderByteIdenticalRunRecords) {
  const uint64_t seed = 42;
  ClusterConfig base = MakeClusterConfig(256 * kMiB, 4, seed);
  base.clients_per_replica = 4;

  const Workload plain = BuildTpcw(kTpcwSmallEbs);
  const ScenarioResult plain_run = ScenarioBuilder()
                                       .Warmup(Seconds(30.0))
                                       .Measure(Seconds(60.0), "m")
                                       .Run(plain, kTpcwOrdering, "MALB-SC", base);

  Workload armed = BuildTpcw(kTpcwSmallEbs);
  armed.skew = base.replica.skew;  // restates the default; zipf_s stays 0
  const size_t population = 16;    // restates clients_per_replica * replicas
  const ScenarioResult armed_run = ScenarioBuilder()
                                       .Do(SetPopulation{population})
                                       .Warmup(Seconds(30.0))
                                       .At(Seconds(10.5), SwitchMix{kTpcwOrdering})
                                       .At(Seconds(12.25), SetPopulation{population})
                                       .Measure(Seconds(60.0), "m")
                                       .Run(armed, kTpcwOrdering, "MALB-SC", base);

  const json::Value plain_record = RenderSingleRun(plain_run.ByLabel("m"));
  const json::Value armed_record = RenderSingleRun(armed_run.ByLabel("m"));
  EXPECT_TRUE(plain_record == armed_record)
      << "armed-but-degenerate run record drifted from the plain model\n  plain: "
      << plain_record.Dump() << "\n  armed: " << armed_record.Dump();
  // The armed run scheduled two extra (draw-free) events — the delayed mix
  // switch and population restatement; only the host-side event count may
  // differ. The immediate SetPopulation before Start schedules nothing.
  EXPECT_EQ(armed_run.executed_events, plain_run.executed_events + 2);
}

// --- leg 3: determinism at scale --------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FluidModel, SkewCampaignIsJobCountInvariant) {
  const Campaign* skew = CampaignRegistry::Instance().Find("skew");
  ASSERT_NE(skew, nullptr) << "skew campaign not registered (link bench_skew.cc)";

  CampaignRunOptions options;
  options.base_seed = 42;
  options.json_dir = "fluid-model-out";
  options.progress = false;

  options.jobs = 1;
  const CampaignRunRecord serial = RunCampaign(*skew, options);
  for (const CellRecord& cell : serial.cells) {
    ASSERT_TRUE(cell.ok) << cell.id << ": " << cell.error;
  }
  ASSERT_TRUE(serial.report_error.empty()) << serial.report_error;
  const json::Value serial_doc = json::Value::Parse(ReadFile(serial.json_path));

  options.jobs = 4;
  const CampaignRunRecord parallel = RunCampaign(*skew, options);
  for (const CellRecord& cell : parallel.cells) {
    ASSERT_TRUE(cell.ok) << cell.id << ": " << cell.error;
  }
  const json::Value parallel_doc = json::Value::Parse(ReadFile(parallel.json_path));

  EXPECT_EQ(serial_doc, parallel_doc)
      << "skew campaign (incl. the 256-replica / 1M-client cell) is not "
      << "--jobs invariant";

  // The 1M-client flash cell really modeled a million clients...
  bool found = false;
  for (const CellRecord& cell : serial.cells) {
    if (cell.id == "flash/256r-1m") {
      found = true;
      EXPECT_EQ(cell.output.Result("flash").clients_modeled, 1000000u);
      EXPECT_TRUE(cell.output.Result("flash").fluid);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace tashkent
