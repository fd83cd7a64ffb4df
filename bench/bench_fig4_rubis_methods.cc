// Campaign "fig4" — Figures 4 and 8 and Table 3: RUBiS comparison of
// load-balancing methods, their disk I/O per transaction (per replica), and
// the memory sweep with update filtering.
// DB 2.2 GB, RAM 512 MB (Figure 8: 256/512/1024 MB), 16 replicas, bidding mix.
// Paper: Single 3, LeastConnections 31, LARD 34, MALB-SC 43 tps
//        (MALB-SC +39% over LC, +26% over LARD); writes 11 KB for all
//        methods; reads 162 / 149 / 111 KB (LC / LARD / MALB-SC), a read
//        fraction of 1.00 / 0.92 / 0.69 (Figure 4, Table 3).
//        LeastConnections 18/31/42, MALB-SC 23/43/44,
//        MALB-SC+UpdateFiltering 24/44/44 tps at 256/512/1024 MB (Figure 8).
// MALB helps below 1 GB; at 1 GB the working sets fit and LeastConnections
// catches up. Filtering adds little at the bidding mix's 15% update rate.
// Figure 8's LeastConnections and MALB-SC points at 512 MB are the method
// cells themselves.
#include "bench/bench_common.h"
#include "src/workload/rubis.h"

namespace tashkent {
namespace {

constexpr Bytes kRams[3] = {256 * kMiB, 512 * kMiB, 1024 * kMiB};
constexpr Bytes kReferenceRam = 512 * kMiB;

Workload Rubis() { return BuildRubis(); }

// The cell answering for `method` at replica memory `ram`.
std::string RamId(const std::string& method, Bytes ram) {
  return ram == kReferenceRam ? method : method + "/" + bench::RamLabel(ram);
}

std::vector<CampaignCell> Cells() {
  std::vector<CampaignCell> cells = {
      bench::StandaloneCell("single", Rubis, kRubisBidding),
      bench::PolicyCell("lc", Rubis, kRubisBidding, "LeastConnections"),
      bench::PolicyCell("lard", Rubis, kRubisBidding, "LARD"),
      bench::PolicyCell("malb-sc", Rubis, kRubisBidding, "MALB-SC"),
  };
  for (Bytes ram : kRams) {
    bench::CellOptions opts;
    opts.ram = ram;
    if (ram != kReferenceRam) {
      cells.push_back(
          bench::PolicyCell(RamId("lc", ram), Rubis, kRubisBidding, "LeastConnections", opts));
      cells.push_back(
          bench::PolicyCell(RamId("malb-sc", ram), Rubis, kRubisBidding, "MALB-SC", opts));
    }
    opts.filtering = true;
    opts.warmup = Seconds(400.0);
    cells.push_back(
        bench::PolicyCell(RamId("malb-sc-uf", ram), Rubis, kRubisBidding, "MALB-SC", opts));
  }
  return cells;
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  const ExperimentResult& lc = r.Result("lc");
  const ExperimentResult& lard = r.Result("lard");
  const ExperimentResult& malb = r.Result("malb-sc");

  out.Begin("Figure 4 and Table 3: RUBiS comparison of methods and disk I/O",
            "DB 2.2GB, RAM 512MB, 16 replicas, bidding mix");
  out.AddRun(bench::RecOf("Single", r.Get("single"), 3));
  out.AddRun(bench::RecOf("LeastConnections", r.Get("lc"), 31, 11, 162));
  out.AddRun(bench::RecOf("LARD", r.Get("lard"), 34, 11, 149));
  out.AddRun(bench::RecOf("MALB-SC", r.Get("malb-sc"), 43, 11, 111));
  out.AddRatio("MALB-SC / LeastConnections", 43.0 / 31.0, malb.tps / lc.tps);
  out.AddRatio("MALB-SC / LARD", 43.0 / 34.0, malb.tps / lard.tps);
  out.AddRatio("LARD reads / LC reads (paper 0.92)", 0.92,
               lard.read_kb_per_txn / lc.read_kb_per_txn);
  out.AddRatio("MALB-SC reads / LC reads (paper 0.69)", 0.69,
               malb.read_kb_per_txn / lc.read_kb_per_txn);
  out.AddGroups("MALB-SC groupings (cf. Table 4)", malb.groups);

  const double paper_lc[3] = {18, 31, 42};
  const double paper_malb[3] = {23, 43, 44};
  const double paper_uf[3] = {24, 44, 44};
  out.Begin("Figure 8: RUBiS bidding mix with update filtering",
            "DB 2.2GB, RAM 256/512/1024 MB, 16 replicas");
  for (int i = 0; i < 3; ++i) {
    const std::string ram = bench::RamLabel(kRams[i]);
    out.AddRun(bench::RecOf("LeastConnections RAM " + ram, r.Get(RamId("lc", kRams[i])),
                            paper_lc[i]));
    out.AddRun(bench::RecOf("MALB-SC RAM " + ram, r.Get(RamId("malb-sc", kRams[i])),
                            paper_malb[i]));
    out.AddRun(bench::RecOf("MALB-SC+UpdateFiltering RAM " + ram,
                            r.Get(RamId("malb-sc-uf", kRams[i])), paper_uf[i]));
  }
}

RegisterCampaign fig4{{"fig4", "Figure 4", "RUBiS comparison of methods (+ Figure 8, Table 3)",
                       "DB 2.2GB, RAM 512MB, 16 replicas, bidding mix", Cells, Report}};

}  // namespace
}  // namespace tashkent
