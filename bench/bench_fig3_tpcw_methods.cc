// Campaign "fig3" — Figures 3, 5 and 7, Tables 1 and 5 and Section 5.3's
// merging ablation: every TPC-W run on MidDB 1.8 GB, RAM 512 MB, 16 replicas,
// ordering mix. The artifacts plot or tabulate the same configuration, so each
// method runs once here and its row carries every paper reference the
// artifacts give it.
// Paper: Single 3, LeastConnections 37 (2.2 s), LARD 50 (1.4 s),
//        MALB-SCAP 57, MALB-S 73, MALB-SC 76 (0.81 s),
//        MALB-SC+UpdateFiltering 113 tps (0.349 s) (Figures 3, 5, 7);
//        writes 12 KB for all methods without filtering, 9 KB with it; reads
//        72 / 57 / 20 / 18 KB (LC / LARD / MALB-SC / UF) (Tables 1, 5);
//        groups SCAP 4, SC 6, S 7 (Figure 5).
// MALB-SCAP under-estimates working sets and over-packs (more disk I/O);
// MALB-S over-estimates but errs safely.
//
// Variants of the same configuration report here too, each against the
// method cell it varies:
//   * Section 5.3's merging ablation: disabling the merging of
//     under-utilized groups drops MALB-S from 73 to 66 tps and MALB-SC from
//     76 to 70 tps;
//   * an ablation of MALB's design choices (beyond the paper): fast
//     reallocation and queue pressure off, update filtering in the paper's
//     freeze mode (Section 4.2.3) against our dynamic mode, and a sweep of
//     the gatekeeper's admission limit;
//   * scalability (the paper's super-linear speedup claim): LC and MALB-SC
//     at 2, 4, 8 and 16 replicas against the standalone database. With MALB
//     the cluster's memory acts as one partitioned cache, so the speedup can
//     exceed the replica count (paper: 25x for MALB-SC at 16 replicas).
// A sweep's reference value (MPL 8, 16 replicas) is the method cell itself.
#include "bench/bench_common.h"
#include "src/core/bin_packing.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

constexpr int kMplSweep[] = {2, 4, 8, 16, 32};
constexpr size_t kReplicaSweep[] = {2, 4, 8, 16};

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }

// The figure's own admission limit and replica count.
const int kReferenceMpl = ProxyConfig{}.max_in_flight;
const size_t kReferenceReplicas = bench::CellOptions{}.replicas;

// The cell answering for MALB-SC at admission limit `mpl`.
std::string MplId(int mpl) {
  return mpl == kReferenceMpl ? "malb-sc" : "malb-sc/mpl" + std::to_string(mpl);
}

// The cell answering for `method` on `replicas` replicas.
std::string ScaleId(const std::string& method, size_t replicas) {
  return replicas == kReferenceReplicas ? method : method + "/x" + std::to_string(replicas);
}

bench::CellOptions Tweaked(std::function<void(ClusterConfig&)> tweak,
                           bench::CellOptions opts = {}) {
  opts.tweak = std::move(tweak);
  return opts;
}

std::vector<CampaignCell> Cells() {
  bench::CellOptions uf;
  uf.filtering = true;
  uf.warmup = Seconds(400.0);
  const bench::CellOptions no_merging =
      Tweaked([](ClusterConfig& c) { c.malb.enable_merging = false; });
  std::vector<CampaignCell> cells = {
      bench::StandaloneCell("single", Mid, kTpcwOrdering),
      bench::PolicyCell("lc", Mid, kTpcwOrdering, "LeastConnections"),
      bench::PolicyCell("lard", Mid, kTpcwOrdering, "LARD"),
      bench::PolicyCell("malb-sc", Mid, kTpcwOrdering, "MALB-SC"),
      bench::PolicyCell("malb-s", Mid, kTpcwOrdering, "MALB-S"),
      bench::PolicyCell("malb-scap", Mid, kTpcwOrdering, "MALB-SCAP"),
      bench::PolicyCell("malb-sc-uf", Mid, kTpcwOrdering, "MALB-SC", uf),
      bench::PolicyCell("malb-sc/no-merging", Mid, kTpcwOrdering, "MALB-SC", no_merging),
      bench::PolicyCell("malb-s/no-merging", Mid, kTpcwOrdering, "MALB-S", no_merging),
      bench::PolicyCell(
          "malb-sc/no-fast-realloc", Mid, kTpcwOrdering, "MALB-SC",
          Tweaked([](ClusterConfig& c) { c.malb.enable_fast_realloc = false; })),
      bench::PolicyCell(
          "malb-sc/no-queue-pressure", Mid, kTpcwOrdering, "MALB-SC",
          Tweaked([](ClusterConfig& c) { c.malb.queue_pressure_weight = 0.0; })),
      bench::PolicyCell("malb-sc-uf/freeze", Mid, kTpcwOrdering, "MALB-SC",
                        Tweaked(
                            [](ClusterConfig& c) {
                              c.malb.filtering_mode = FilteringMode::kFreezeWhenStable;
                            },
                            uf)),
  };
  for (int mpl : kMplSweep) {
    if (mpl != kReferenceMpl) {
      cells.push_back(bench::PolicyCell(
          MplId(mpl), Mid, kTpcwOrdering, "MALB-SC",
          Tweaked([mpl](ClusterConfig& c) { c.proxy.max_in_flight = mpl; })));
    }
  }
  for (size_t replicas : kReplicaSweep) {
    if (replicas != kReferenceReplicas) {
      bench::CellOptions opts;
      opts.replicas = replicas;
      cells.push_back(
          bench::PolicyCell(ScaleId("lc", replicas), Mid, kTpcwOrdering, "LeastConnections", opts));
      cells.push_back(
          bench::PolicyCell(ScaleId("malb-sc", replicas), Mid, kTpcwOrdering, "MALB-SC", opts));
    }
  }
  return cells;
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

  // Section 5.3.
  out.Note("merging ablation (paper: MALB-S 73 -> 66 tps, MALB-SC 76 -> 70 tps):");
  out.AddRun(bench::RecOf("MALB-S, merging on", r.Get("malb-s"), 73));
  out.AddRun(bench::RecOf("MALB-S, merging off", r.Get("malb-s/no-merging"), 66));
  out.AddRun(bench::RecOf("MALB-SC, merging on", r.Get("malb-sc"), 76));
  out.AddRun(bench::RecOf("MALB-SC, merging off", r.Get("malb-sc/no-merging"), 70));

  out.Begin("Ablation: MALB design choices",
            "MidDB 1.8GB, RAM 512MB, 16 replicas, ordering mix");
  out.AddRun(bench::RecOf("MALB-SC (reference)", r.Get("malb-sc"), 76));
  out.AddRun(bench::RecOf("fast reallocation off", r.Get("malb-sc/no-fast-realloc")));
  out.AddRun(bench::RecOf("queue-pressure off", r.Get("malb-sc/no-queue-pressure")));
  out.AddRun(bench::RecOf("merging off", r.Get("malb-sc/no-merging"), 70));
  out.AddRun(bench::RecOf("+filtering (dynamic mode)", r.Get("malb-sc-uf"), 113));
  out.AddRun(bench::RecOf("+filtering (freeze mode)", r.Get("malb-sc-uf/freeze"), 113));
  out.Note("Gatekeeper admission limit sweep (MALB-SC):");
  for (int mpl : kMplSweep) {
    out.AddRun(bench::RecOf("MPL " + std::to_string(mpl), r.Get(MplId(mpl))));
  }

  out.Begin("Scalability: throughput vs replica count", "TPC-W ordering, MidDB 1.8GB, RAM 512MB");
  out.AddRun(bench::RecOf("standalone database", r.Get("single")));
  for (size_t replicas : kReplicaSweep) {
    const std::string n = std::to_string(replicas);
    const CellOutput& lc_n = r.Get(ScaleId("lc", replicas));
    const CellOutput& malb_n = r.Get(ScaleId("malb-sc", replicas));
    out.AddRun(bench::RecOf("LeastConnections x" + n, lc_n));
    out.AddRun(bench::RecOf("MALB-SC x" + n, malb_n));
    out.AddScalar("LC speedup x" + n, lc_n.Result().tps / single.tps);
    out.AddScalar("MALB speedup x" + n, malb_n.Result().tps / single.tps);
    if (malb_n.Result().tps / single.tps > static_cast<double>(replicas)) {
      out.Note("MALB-SC super-linear at " + n + " replicas");
    }
  }
  out.Note("paper at 16 replicas: LC 12x, MALB-SC 25x, MALB-SC+filtering 37x");
}

RegisterCampaign fig3{{"fig3", "Figure 3",
                       "TPC-W methods (+ Figures 5, 7, Tables 1, 5, Section 5.3 merging, "
                       "ablation, scalability)",
                       "MidDB 1.8GB, RAM 512MB, 16 replicas, ordering mix", Cells, Report}};

}  // namespace
}  // namespace tashkent
