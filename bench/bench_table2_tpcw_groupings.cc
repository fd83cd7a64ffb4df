// Campaign "table2" — Table 2: TPC-W MALB-SC transaction groupings and
// replica allocation.
// Paper: [BestSeller] 2, [AdminRespo] 4, [BuyConfirm] 7,
//        [BuyRequest, ShopinCart] 1,
//        [ExecSearch, OrderDispl, OrderInqur, ProducDet] 1,
//        [HomeAction, NewProduct, SearchRequ, AdmiRqust] 1.
#include "bench/bench_common.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }

std::vector<CampaignCell> Cells() {
  bench::CellOptions converged;
  converged.warmup = Seconds(400.0);
  converged.measure = Seconds(200.0);
  return {
      bench::PolicyCell("malb-sc", Mid, kTpcwOrdering, "MALB-SC", converged),
  };
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Table 2: TPC-W MALB-SC groupings", "MidDB 1.8GB, capacity 442MB, 16 replicas");
  bench::ReportStaticPacking(Mid(), MakeClusterConfig(512 * kMiB), out, 6);

  // Dynamic allocation after a converged run (paper's replica counts:
  // BestSeller 2, AdminResponse 4, BuyConfirm 7, others 1 each).
  const CellOutput& run = r.Get("malb-sc");
  out.AddRun(bench::RecOf("MALB-SC (converged)", run, 76));
  out.AddGroups("replica allocation after convergence (ordering mix)", run.Result().groups);
}

RegisterCampaign table2{{"table2", "Table 2", "TPC-W MALB-SC groupings",
                         "MidDB 1.8GB, capacity 442MB, 16 replicas", Cells, Report}};

}  // namespace
}  // namespace tashkent
