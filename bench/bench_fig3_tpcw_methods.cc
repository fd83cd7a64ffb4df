// Campaign "fig3" — Figures 3, 5 and 7 and Tables 1 and 5: every TPC-W run on
// MidDB 1.8 GB, RAM 512 MB, 16 replicas, ordering mix. The five artifacts plot
// or tabulate the same configuration, so each method runs once here and its
// row carries every paper reference the artifacts give it.
// Paper: Single 3, LeastConnections 37 (2.2 s), LARD 50 (1.4 s),
//        MALB-SCAP 57, MALB-S 73, MALB-SC 76 (0.81 s),
//        MALB-SC+UpdateFiltering 113 tps (0.349 s) (Figures 3, 5, 7);
//        writes 12 KB for all methods without filtering, 9 KB with it; reads
//        72 / 57 / 20 / 18 KB (LC / LARD / MALB-SC / UF) (Tables 1, 5);
//        groups SCAP 4, SC 6, S 7 (Figure 5).
// MALB-SCAP under-estimates working sets and over-packs (more disk I/O);
// MALB-S over-estimates but errs safely.
#include "bench/bench_common.h"
#include "src/core/bin_packing.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }

std::vector<CampaignCell> Cells() {
  bench::CellOptions uf;
  uf.filtering = true;
  uf.warmup = Seconds(400.0);
  return {
      bench::StandaloneCell("single", Mid, kTpcwOrdering),
      bench::PolicyCell("lc", Mid, kTpcwOrdering, "LeastConnections"),
      bench::PolicyCell("lard", Mid, kTpcwOrdering, "LARD"),
      bench::PolicyCell("malb-sc", Mid, kTpcwOrdering, "MALB-SC"),
      bench::PolicyCell("malb-s", Mid, kTpcwOrdering, "MALB-S"),
      bench::PolicyCell("malb-scap", Mid, kTpcwOrdering, "MALB-SCAP"),
      bench::PolicyCell("malb-sc-uf", Mid, kTpcwOrdering, "MALB-SC", uf),
  };
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  const ExperimentResult& single = r.Result("single");
  const ExperimentResult& lc = r.Result("lc");
  const ExperimentResult& lard = r.Result("lard");
  const ExperimentResult& malb = r.Result("malb-sc");
  const ExperimentResult& s = r.Result("malb-s");
  const ExperimentResult& scap = r.Result("malb-scap");
  const ExperimentResult& uf = r.Result("malb-sc-uf");

  out.Begin("Figures 3, 5, 7 and Tables 1, 5: TPC-W methods, grouping and update filtering",
            "MidDB 1.8GB, RAM 512MB, 16 replicas, ordering mix");
  out.AddRun(bench::RecOf("Single", r.Get("single"), 3));
  out.AddRun(bench::RecOf("LeastConnections", r.Get("lc"), 37, 12, 72));
  out.AddRun(bench::RecOf("LARD", r.Get("lard"), 50, 12, 57));
  out.AddRun(bench::RecOf("MALB-SC", r.Get("malb-sc"), 76, 12, 20));
  out.AddRun(bench::RecOf("MALB-S", r.Get("malb-s"), 73));
  out.AddRun(bench::RecOf("MALB-SCAP", r.Get("malb-scap"), 57));
  out.AddRun(bench::RecOf("MALB-SC+UpdateFiltering", r.Get("malb-sc-uf"), 113, 9, 18));

  // Figure 3.
  out.AddRatio("MALB-SC / LeastConnections", 76.0 / 37.0, malb.tps / lc.tps);
  out.AddRatio("MALB-SC / LARD", 76.0 / 50.0, malb.tps / lard.tps);
  out.AddRatio("LARD / LeastConnections", 50.0 / 37.0, lard.tps / lc.tps);
  out.AddRatio("MALB-SC / Single (super-linear > 16)", 25.0, malb.tps / single.tps);
  // Table 1.
  out.AddRatio("LARD reads / LC reads (paper 0.79)", 0.79,
               lard.read_kb_per_txn / lc.read_kb_per_txn);
  out.AddRatio("MALB-SC reads / LC reads (paper 0.28)", 0.28,
               malb.read_kb_per_txn / lc.read_kb_per_txn);
  // Figure 5.
  out.AddRatio("MALB-SC / MALB-SCAP", 76.0 / 57.0, malb.tps / scap.tps);
  out.AddRatio("MALB-SC / MALB-S", 76.0 / 73.0, malb.tps / s.tps);
  // Figure 7.
  out.AddRatio("UF / MALB-SC", 113.0 / 76.0, uf.tps / malb.tps);
  out.AddRatio("UF / LeastConnections", 113.0 / 37.0, uf.tps / lc.tps);
  out.AddRatio("UF / Single", 37.0, uf.tps / single.tps);
  // Table 5.
  out.AddRatio("UF writes / MALB writes (paper 0.75)", 0.75,
               uf.write_kb_per_txn / malb.write_kb_per_txn);
  out.AddRatio("UF reads / MALB reads (paper 0.90)", 0.90,
               uf.read_kb_per_txn / malb.read_kb_per_txn);

  // Figure 5's group counts per method. Pure static packing — computed here
  // on the main thread, no cluster run needed.
  const Workload w = Mid();
  const ClusterConfig config = MakeClusterConfig(512 * kMiB);
  const auto ws = BuildWorkingSets(w.registry, w.schema);
  const Pages capacity = BytesToPages(config.replica.memory - config.replica.reserved);
  const auto groups = [&](EstimationMethod method) {
    return static_cast<double>(PackTransactionGroups(ws, capacity, method).groups.size());
  };
  out.AddScalar("groups SCAP (paper 4)", groups(EstimationMethod::kSizeContentAccess));
  out.AddScalar("groups SC (paper 6)", groups(EstimationMethod::kSizeContent));
  out.AddScalar("groups S (paper 7)", groups(EstimationMethod::kSize));
  out.AddGroups("MALB-SC groupings (cf. Table 2)", malb.groups);
}

RegisterCampaign fig3{{"fig3", "Figure 3", "TPC-W methods (+ Figures 5, 7, Tables 1, 5)",
                       "MidDB 1.8GB, RAM 512MB, 16 replicas, ordering mix", Cells, Report}};

}  // namespace
}  // namespace tashkent
