// Campaign "table4" — Table 4: RUBiS MALB-SC transaction groupings and
// replica allocation.
// Paper: [AboutMe] 9,
//        [PutBid, StoreComment, ViewBidHistory, ViewUserInfo] 4,
//        [Auth, BrowseCategories, BrowseRegions, BuyNow, PutComment,
//         RegisterUser, SearchItemsByRegion, StoreBuyNow] 1,
//        [RegisterItem, SearchItemsByCategory, StoreBid, viewItem] 2.
#include "bench/bench_common.h"
#include "src/workload/rubis.h"

namespace tashkent {
namespace {

Workload Rubis() { return BuildRubis(); }

std::vector<CampaignCell> Cells() {
  bench::CellOptions converged;
  converged.warmup = Seconds(400.0);
  converged.measure = Seconds(200.0);
  return {
      bench::PolicyCell("malb-sc", Rubis, kRubisBidding, "MALB-SC", converged),
  };
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Table 4: RUBiS MALB-SC groupings", "DB 2.2GB, capacity 442MB, 16 replicas");

  bench::ReportStaticPacking(Rubis(), MakeClusterConfig(512 * kMiB), out, 4);

  const CellOutput& run = r.Get("malb-sc");
  out.AddRun(bench::RecOf("MALB-SC (converged)", run, 43));
  out.AddGroups("replica allocation after convergence (bidding mix)", run.Result().groups);
}

RegisterCampaign table4{{"table4", "Table 4", "RUBiS MALB-SC groupings",
                         "DB 2.2GB, capacity 442MB, 16 replicas", Cells, Report}};

}  // namespace
}  // namespace tashkent
