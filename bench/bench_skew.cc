// Campaign "skew" — the fluid client model at scale: Zipfian key popularity,
// flash crowds, diurnal curves and a mix spike on 64-256 replica cells with
// 100k-1M modeled clients (src/workload/fluid_pool.h). Reports the load-shape
// columns (unevenness, miss_rate, realloc_moves) next to the usual
// throughput/response rows.
//
// The "inert/4r" cell is the degenerate-parameter gate: one cell runs the
// SAME seed twice — once "armed" with every new knob engaged at values that
// must change nothing (workload skew equal to the replica default, zipf_s 0,
// a scheduled SwitchMix to the already-active mix, SetPopulation verbs that restate
// the current population) and once "plain" with none of the new surface
// touched. Report() compares every metric (bench::RequireIdentical) and
// throws on any difference, which fails the cell hard in CI (`tashkent_bench` exits
// non-zero); tests/fluid_model_test.cc additionally pins the two rendered
// run records byte-for-byte. This is what lets the fluid/skew machinery ship
// inside an otherwise byte-frozen simulator: armed-but-degenerate is
// provably the old model.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

// --- workload factories ------------------------------------------------------

Workload Small() { return BuildTpcw(kTpcwSmallEbs); }

Workload SmallZipf(double s) {
  Workload w = BuildTpcw(kTpcwSmallEbs);
  AccessSkew skew;
  skew.zipf_s = s;
  w.skew = skew;
  return w;
}

Workload SmallZipf08() { return SmallZipf(0.8); }
Workload SmallZipf12() { return SmallZipf(1.2); }

// --- cell options ------------------------------------------------------------

// Scale cells: 64 replicas x 1563 clients/replica ~= 100k modeled clients.
// The fluid model keeps the event rate proportional to throughput (pop /
// think), not population, so a 100 s think time holds the offered load near
// 1k tps and the cell at CI scale.
constexpr size_t kScaleReplicas = 64;
constexpr int kScaleClientsPerReplica = 1563;
constexpr double kScaleThinkS = 100.0;

bench::CellOptions FluidOptions(size_t replicas, int clients_per_replica, double think_s) {
  bench::CellOptions opts;
  opts.ram = 256 * kMiB;
  opts.replicas = replicas;
  opts.clients = clients_per_replica;  // fixed: no calibration sweep at this scale
  opts.warmup = Seconds(20.0);
  opts.measure = Seconds(60.0);
  opts.tweak = [think_s](ClusterConfig& config) {
    config.fluid_clients = true;
    config.mean_think = Seconds(think_s);
  };
  return opts;
}

// --- the inert dual-run cell -------------------------------------------------

bench::CellOptions InertOptions() {
  bench::CellOptions opts;
  opts.ram = 256 * kMiB;
  opts.replicas = 4;
  opts.clients = 4;
  opts.warmup = Seconds(30.0);
  opts.measure = Seconds(60.0);
  return opts;
}

// Runs the armed and plain clusters with the SAME seed inside one campaign
// cell (CellSeed depends on the cell id, so two cells could never share a
// seed) and returns both measures under the labels "armed" / "plain".
CellOutput RunInertPair(uint64_t seed) {
  const bench::CellOptions opts = InertOptions();
  const size_t population =
      static_cast<size_t>(opts.clients) * opts.replicas;  // restated, never changed

  // Plain: the pre-skew model, no new surface touched.
  const Workload plain = Small();
  ClusterConfig plain_config = bench::CellConfig(seed, opts);
  plain_config.clients_per_replica = opts.clients;
  ScenarioResult plain_result = ScenarioBuilder()
                                    .Warmup(opts.warmup)
                                    .Measure(opts.measure, "plain")
                                    .Run(plain, kTpcwOrdering, "MALB-SC", plain_config);

  // Armed: every new knob engaged at its degenerate value. The workload skew
  // restates the replica default (zipf_s 0 keeps the hot/cold draw sequence),
  // the population verbs restate the constructed population, and the mix
  // switch re-selects the active mix. The scheduled verbs use off-round
  // offsets so their (draw-free) events never tie with a periodic daemon.
  Workload armed = Small();
  ClusterConfig armed_config = bench::CellConfig(seed, opts);
  armed_config.clients_per_replica = opts.clients;
  armed.skew = armed_config.replica.skew;
  ScenarioResult armed_result = ScenarioBuilder()
                                    .Do(SetPopulation{population})
                                    .Warmup(opts.warmup)
                                    .At(Seconds(10.5), SwitchMix{kTpcwOrdering})
                                    .At(Seconds(12.25), SetPopulation{population})
                                    .Measure(opts.measure, "armed")
                                    .Run(armed, kTpcwOrdering, "MALB-SC", armed_config);

  CellOutput out;
  out.workload = armed.name;
  out.mix = kTpcwOrdering;
  out.policy = "MALB-SC";
  out.executed_events = armed_result.executed_events + plain_result.executed_events;
  out.scenario = std::move(armed_result);
  out.scenario.measures.push_back(
      {"plain", Seconds(0.0), std::move(plain_result.measures.front().result)});
  return out;
}

// --- grid --------------------------------------------------------------------

std::vector<CampaignCell> Cells() {
  std::vector<CampaignCell> cells;

  CampaignCell inert;
  inert.id = "inert/4r";
  inert.run = RunInertPair;
  cells.push_back(std::move(inert));

  // Zipf sweep: same 100k-client fluid cell at s = 0 (uniform hot/cold
  // default), 0.8 and 1.2, to read unevenness/miss_rate against skew.
  cells.push_back(bench::PolicyCell(
      "uniform/64r-100k", Small, kTpcwOrdering, "MALB-SC",
      FluidOptions(kScaleReplicas, kScaleClientsPerReplica, kScaleThinkS)));
  cells.push_back(bench::PolicyCell(
      "zipf08/64r-100k", SmallZipf08, kTpcwOrdering, "MALB-SC",
      FluidOptions(kScaleReplicas, kScaleClientsPerReplica, kScaleThinkS)));
  cells.push_back(bench::PolicyCell(
      "zipf12/64r-100k", SmallZipf12, kTpcwOrdering, "MALB-SC",
      FluidOptions(kScaleReplicas, kScaleClientsPerReplica, kScaleThinkS)));

  // Flash crowd: 256 replicas, read-only RUBiS browsing, 500k clients
  // doubling to 1M ten seconds into the flash window. Read-only keeps the
  // certifier quiet, so the cell exercises pure routing + buffer-pool scale.
  cells.push_back(bench::ScenarioCell(
      "flash/256r-1m", BuildRubis, kRubisBrowsing, "MALB-SC",
      ScenarioBuilder()
          .Warmup(Seconds(20.0))
          .Measure(Seconds(30.0), "before")
          .At(Seconds(10.0), SetPopulation{1000000})
          .Measure(Seconds(60.0), "flash"),
      FluidOptions(256, 1954, 500.0)));  // 1954 * 256 ~= 500k baseline

  // Diurnal curve: population steps 50k -> 80k -> 100k -> 60k across one
  // measured window (scheduled at off-round offsets inside it).
  cells.push_back(bench::ScenarioCell(
      "diurnal/64r-100k", BuildRubis, kRubisBidding, "MALB-SC",
      ScenarioBuilder()
          .Warmup(Seconds(20.0))
          .At(Seconds(15.0), SetPopulation{80000})
          .At(Seconds(30.0), SetPopulation{100000})
          .At(Seconds(45.0), SetPopulation{60000})
          .Measure(Seconds(60.0), "measure"),
      FluidOptions(kScaleReplicas, 782, kScaleThinkS)));  // 782 * 64 ~= 50k baseline

  // TPC-W shopping spike: browsing flips to shopping mid-window (the
  // Figure 6 shape at fluid scale).
  cells.push_back(bench::ScenarioCell(
      "spike/64r-100k", Small, kTpcwBrowsing, "MALB-SC",
      ScenarioBuilder()
          .Warmup(Seconds(20.0))
          .At(Seconds(20.0), SwitchMix{kTpcwShopping})
          .Measure(Seconds(60.0), "measure"),
      FluidOptions(kScaleReplicas, kScaleClientsPerReplica, kScaleThinkS)));

  return cells;
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Skew: fluid clients, Zipfian popularity, flash crowds",
            "SmallDB/RUBiS, 64-256 replicas, 100k-1M fluid clients, MALB-SC");

  const CellOutput& inert = r.Get("inert/4r");
  bench::RequireIdentical(inert.Result("armed"), inert.Result("plain"),
                          "inert skew cell: the armed (degenerate knobs) and plain runs");
  out.AddRun(bench::RecOf("inert armed (degenerate knobs)", inert, 0, 0, 0, "armed"));
  out.AddRun(bench::RecOf("inert plain (pre-skew model)", inert, 0, 0, 0, "plain"));
  out.AddScalar("inert pair identical", 1.0);

  const char* zipf_cells[] = {"uniform/64r-100k", "zipf08/64r-100k", "zipf12/64r-100k"};
  const char* zipf_labels[] = {"fluid 100k uniform", "fluid 100k zipf 0.8",
                               "fluid 100k zipf 1.2"};
  for (size_t i = 0; i < 3; ++i) {
    const CellOutput& cell = r.Get(zipf_cells[i]);
    out.AddRun(bench::RecOf(zipf_labels[i], cell));
    const ExperimentResult& res = cell.Result();
    const std::string key(zipf_labels[i]);
    out.AddScalar(key + " unevenness", res.unevenness);
    out.AddScalar(key + " miss rate", res.miss_rate);
    out.AddScalar(key + " realloc moves", static_cast<double>(res.realloc_moves));
  }

  const CellOutput& flash = r.Get("flash/256r-1m");
  out.AddRun(bench::RecOf("flash 256r before (500k)", flash, 0, 0, 0, "before"));
  out.AddRun(bench::RecOf("flash 256r crowd (1M)", flash, 0, 0, 0, "flash"));
  out.AddScalar("flash crowd tps gain",
                flash.Result("before").tps > 0.0
                    ? flash.Result("flash").tps / flash.Result("before").tps
                    : 0.0);

  out.AddRun(bench::RecOf("diurnal 64r (50k-100k)", r.Get("diurnal/64r-100k")));
  out.AddRun(bench::RecOf("spike 64r browsing->shopping", r.Get("spike/64r-100k")));
  out.AddTimeline("flash/256r-1m", flash.scenario.timeline);
}

RegisterCampaign skew{{"skew", "", "Skew: fluid clients, Zipfian popularity, flash crowds",
                       "SmallDB/RUBiS, 64-256 replicas, 100k-1M fluid clients, MALB-SC", Cells,
                       Report}};

}  // namespace
}  // namespace tashkent
