// Campaign "fig4" — Figure 4 and Table 3: RUBiS comparison of load-balancing
// methods and their disk I/O per transaction (per replica).
// DB 2.2 GB, RAM 512 MB, 16 replicas, bidding mix.
// Paper: Single 3, LeastConnections 31, LARD 34, MALB-SC 43 tps
//        (MALB-SC +39% over LC, +26% over LARD); writes 11 KB for all
//        methods; reads 162 / 149 / 111 KB (LC / LARD / MALB-SC), a read
//        fraction of 1.00 / 0.92 / 0.69.
#include "bench/bench_common.h"
#include "src/workload/rubis.h"

namespace tashkent {
namespace {

Workload Rubis() { return BuildRubis(); }

std::vector<CampaignCell> Cells() {
  return {
      bench::StandaloneCell("single", Rubis, kRubisBidding),
      bench::PolicyCell("lc", Rubis, kRubisBidding, "LeastConnections"),
      bench::PolicyCell("lard", Rubis, kRubisBidding, "LARD"),
      bench::PolicyCell("malb-sc", Rubis, kRubisBidding, "MALB-SC"),
  };
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
}

RegisterCampaign fig4{{"fig4", "Figure 4", "RUBiS comparison of methods (+ Table 3)",
                       "DB 2.2GB, RAM 512MB, 16 replicas, bidding mix", Cells, Report}};

}  // namespace
}  // namespace tashkent
