// Campaign "fig10" — Figure 10: the full TPC-W configuration sweep — 3
// database sizes x 3 mixes x 3 memory sizes x 3 methods (81 experiments).
// Each chart of the figure is one (DB, mix) cell with RAM on the x-axis and
// bars for LeastConnections / MALB-SC / MALB-SC+UpdateFiltering.
//
// Paper values (tps), series-major per chart (RAM 256/512/1024 MB):
//   LargeDB-Ordering:  LC 17/24/39   MALB 19/42/110  UF 21/56/147
//   LargeDB-Shopping:  LC 10/22/51   MALB 15/35/60   UF 15/36/61
//   LargeDB-Browsing:  LC  5/16/27   MALB  7/19/27   UF  7/19/27
//   MidDB-Ordering:    LC 20/37/114  MALB 29/76/169  UF 30/113/194
//   MidDB-Shopping:    LC 16/54/93   MALB 26/76/93   UF 26/79/93
//   MidDB-Browsing:    LC 11/37/51   MALB 19/45/51   UF 19/46/51
//   SmallDB-Ordering:  LC 101/212/247 MALB 130/211/257 UF 156/217/257
//   SmallDB-Shopping:  LC 267/339/341 MALB 278/340/343 UF 311/342/343
//   SmallDB-Browsing:  LC 295/299/295 MALB 300/299/305 UF 300/299/305
//
// Figure 9 — the database-size vs memory-size space — is read off the
// ordering-mix charts: each (DB, RAM) point gets the MALB-SC speedup over LC
// as a scalar and a region note. Paper (qualitative): when the working sets
// exceed memory everywhere, partitioning cannot help; when the database fits
// in memory, it is not needed; in between, partitioning and filtering help.
#include <array>
#include <cstring>

#include "bench/bench_common.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

struct Chart {
  const char* db_name;
  int ebs;
  const char* mix;
  // Paper tps for LC / MALB-SC / UF at 256, 512, 1024 MB.
  std::array<double, 3> paper_lc;
  std::array<double, 3> paper_malb;
  std::array<double, 3> paper_uf;
};

constexpr std::array<Bytes, 3> kRams = {256 * kMiB, 512 * kMiB, 1024 * kMiB};

const Chart kCharts[] = {
    {"LargeDB", kTpcwLargeEbs, kTpcwOrdering, {17, 24, 39}, {19, 42, 110}, {21, 56, 147}},
    {"LargeDB", kTpcwLargeEbs, kTpcwShopping, {10, 22, 51}, {15, 35, 60}, {15, 36, 61}},
    {"LargeDB", kTpcwLargeEbs, kTpcwBrowsing, {5, 16, 27}, {7, 19, 27}, {7, 19, 27}},
    {"MidDB", kTpcwMediumEbs, kTpcwOrdering, {20, 37, 114}, {29, 76, 169}, {30, 113, 194}},
    {"MidDB", kTpcwMediumEbs, kTpcwShopping, {16, 54, 93}, {26, 76, 93}, {26, 79, 93}},
    {"MidDB", kTpcwMediumEbs, kTpcwBrowsing, {11, 37, 51}, {19, 45, 51}, {19, 46, 51}},
    {"SmallDB", kTpcwSmallEbs, kTpcwOrdering, {101, 212, 247}, {130, 211, 257}, {156, 217, 257}},
    {"SmallDB", kTpcwSmallEbs, kTpcwShopping, {267, 339, 341}, {278, 340, 343}, {311, 342, 343}},
    {"SmallDB", kTpcwSmallEbs, kTpcwBrowsing, {295, 299, 295}, {300, 299, 305}, {300, 299, 305}},
};

using bench::RamLabel;

// Figure 9's region for a MALB-SC / LC speedup.
const char* Classify(double speedup) {
  if (speedup >= 1.25) {
    return "PARTITIONING-HELPS";
  }
  if (speedup >= 1.05) {
    return "modest-gain";
  }
  return "no-gain";
}

std::vector<CampaignCell> Cells() {
  std::vector<CampaignCell> cells;
  for (const Chart& chart : kCharts) {
    const int ebs = chart.ebs;
    auto wf = [ebs]() { return BuildTpcw(ebs); };
    const std::string prefix = std::string(chart.db_name) + "-" + chart.mix;
    for (size_t i = 0; i < kRams.size(); ++i) {
      bench::CellOptions opts;
      opts.ram = kRams[i];
      opts.warmup = Seconds(200.0);
      opts.measure = Seconds(200.0);
      bench::CellOptions uf = opts;
      uf.filtering = true;
      uf.warmup = Seconds(300.0);
      const std::string coord = prefix + "/" + RamLabel(kRams[i]);
      cells.push_back(bench::PolicyCell("lc/" + coord, wf, chart.mix, "LeastConnections", opts));
      cells.push_back(bench::PolicyCell("malb-sc/" + coord, wf, chart.mix, "MALB-SC", opts));
      cells.push_back(bench::PolicyCell("malb-sc-uf/" + coord, wf, chart.mix, "MALB-SC", uf));
    }
  }
  return cells;
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Figures 9, 10: TPC-W throughput sweep (81 experiments)",
            "3 DB sizes x 3 mixes x 3 RAM sizes x LC / MALB-SC / MALB-SC+UF");
  for (const Chart& chart : kCharts) {
    const std::string prefix = std::string(chart.db_name) + "-" + chart.mix;
    for (size_t i = 0; i < kRams.size(); ++i) {
      const std::string coord = prefix + "/" + RamLabel(kRams[i]);
      const std::string ram = " RAM " + RamLabel(kRams[i]);
      out.AddRun(
          bench::RecOf(prefix + ram + " LC", r.Get("lc/" + coord), chart.paper_lc[i]));
      out.AddRun(bench::RecOf(prefix + ram + " MALB-SC", r.Get("malb-sc/" + coord),
                              chart.paper_malb[i]));
      out.AddRun(bench::RecOf(prefix + ram + " MALB-SC+UF", r.Get("malb-sc-uf/" + coord),
                              chart.paper_uf[i]));
      if (std::strcmp(chart.mix, kTpcwOrdering) == 0) {
        const double lc = r.Result("lc/" + coord).tps;
        const double speedup = lc > 0 ? r.Result("malb-sc/" + coord).tps / lc : 0.0;
        out.AddScalar(prefix + ram + " speedup", speedup);
        out.Note(prefix + ram + ": " + Classify(speedup));
      }
    }
  }
  out.Note("Figure 9's expected shape (paper): the diagonal band where working sets of "
           "groups fit memory but their union does not shows the largest gains; "
           "tiny-DB/large-RAM and huge-DB/tiny-RAM corners show little benefit.");
}

RegisterCampaign fig10{{"fig10", "Figure 10", "TPC-W throughput sweep (+ Figure 9)",
                        "3 DB sizes x 3 mixes x 3 RAM sizes x LC / MALB-SC / MALB-SC+UF",
                        Cells, Report}};

}  // namespace
}  // namespace tashkent
