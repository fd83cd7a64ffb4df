// Campaign "churn" — fault injection and elastic-cluster scenarios (beyond
// the paper; docs/OPERATIONS.md is the operator-facing cookbook).
//
// The paper's dynamic-reconfiguration story (Figure 6) changes the LOAD under
// a fixed cluster; this campaign changes the CLUSTER under a fixed load,
// exercising every churn verb:
//   * failrecover/* — KillReplica + RecoverReplica mid-window, with and
//     without update filtering. Filtering shrinks the recovery replay (a
//     recovering replica skips writesets outside its subscription), so the
//     filter cells must show fewer replayed writesets and a shorter recovery
//     lag than their plain twins — the Section 3 claim restated under churn.
//   * hetero/*      — heterogeneous replica memories (same total RAM,
//     different split). MALB's heterogeneous bin packing must keep groups on
//     replicas that can host them instead of assuming replica 0's size.
//   * elastic/*     — AddReplica scale-out (new replicas install a checkpoint
//     image and replay the suffix before serving) and ResizeMemory
//     grow-in-place.
//
// Metrics: availability (fraction of client attempts not lost to
// unavailability), recovery lag (replay seconds per completed recovery), and
// replay applied/filtered counts — all per-run columns in the JSON document.
#include "bench/bench_common.h"
#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }
Workload Rubis() { return BuildRubis(); }

constexpr size_t kReplicas = 8;
constexpr size_t kKillTarget = 3;

// Kill replica 3 one minute into a 600 s measure window; begin recovery three
// minutes later. The window sees the failover dip, the replay, and the
// rejoin, so availability / recovery lag / replay counts all land in one
// labeled result.
ScenarioBuilder FailRecoverScript() {
  return ScenarioBuilder()
      .Warmup(Seconds(400.0))  // long enough for filtering to stabilize + engage
      .At(Seconds(60.0), KillReplica{kKillTarget})
      .At(Seconds(240.0), RecoverReplica{kKillTarget})
      .Measure(Seconds(600.0), "churn");
}

bench::CellOptions ChurnOptions(bool filtering) {
  bench::CellOptions opts;
  opts.replicas = kReplicas;
  opts.filtering = filtering;
  return opts;
}

// Heterogeneous splits of the uniform 8 x 512 MB = 4 GB budget. Every entry
// stays above the 70 MB reservation; MALB must pack against each size.
bench::CellOptions HeteroOptions(std::vector<Bytes> memory_mib) {
  bench::CellOptions opts;
  opts.replicas = kReplicas;
  opts.tweak = [memory_mib = std::move(memory_mib)](ClusterConfig& config) {
    config.replica_memory.clear();
    for (Bytes mib : memory_mib) {
      config.replica_memory.push_back(mib * kMiB);
    }
  };
  return opts;
}

std::vector<CampaignCell> Cells() {
  std::vector<CampaignCell> cells;

  // --- fail/recover: update filtering vs plain, TPC-W and RUBiS -----------
  cells.push_back(bench::ScenarioCell("failrecover/tpcw/plain", Mid, kTpcwOrdering,
                                      "MALB-SC", FailRecoverScript(), ChurnOptions(false)));
  cells.push_back(bench::ScenarioCell("failrecover/tpcw/filter", Mid, kTpcwOrdering,
                                      "MALB-SC", FailRecoverScript(), ChurnOptions(true)));
  cells.push_back(bench::ScenarioCell("failrecover/rubis/plain", Rubis, kRubisBidding,
                                      "MALB-SC", FailRecoverScript(), ChurnOptions(false)));
  cells.push_back(bench::ScenarioCell("failrecover/rubis/filter", Rubis, kRubisBidding,
                                      "MALB-SC", FailRecoverScript(), ChurnOptions(true)));

  // --- heterogeneous memory sweep (same 4 GB total, different splits) ------
  const ScenarioBuilder steady =
      ScenarioBuilder().Warmup(Seconds(240.0)).Measure(Seconds(240.0), "measure");
  bench::CellOptions uniform;
  uniform.replicas = kReplicas;
  cells.push_back(
      bench::ScenarioCell("hetero/uniform", Mid, kTpcwOrdering, "MALB-SC", steady, uniform));
  cells.push_back(bench::ScenarioCell("hetero/mixed", Mid, kTpcwOrdering, "MALB-SC", steady,
                                      HeteroOptions({1024, 768, 512, 512, 512, 384, 256, 128})));
  cells.push_back(bench::ScenarioCell("hetero/extreme", Mid, kTpcwOrdering, "MALB-SC", steady,
                                      HeteroOptions({2048, 512, 512, 256, 256, 256, 128, 128})));

  // --- elastic: scale-out and resize ---------------------------------------
  // Scale-out: 6 replicas; two more join inside the "join" window (each
  // installs a checkpoint image and replays the suffix before serving —
  // counted as recoveries and joins there).
  bench::CellOptions six;
  six.replicas = 6;
  cells.push_back(bench::ScenarioCell(
      "elastic/scale-up", Mid, kTpcwOrdering, "MALB-SC",
      ScenarioBuilder()
          .Warmup(Seconds(240.0))
          .Measure(Seconds(240.0), "before")
          .At(Seconds(30.0), AddReplica{})
          .At(Seconds(90.0), AddReplica{})
          .Measure(Seconds(360.0), "join")
          .Measure(Seconds(240.0), "after"),
      six));
  // Resize: memory-constrained 8 x 256 MB cluster; half the replicas grow to
  // 1 GB mid-run and MALB re-packs against the new capacity vector.
  bench::CellOptions constrained;
  constrained.replicas = kReplicas;
  constrained.ram = 256 * kMiB;
  cells.push_back(bench::ScenarioCell(
      "elastic/resize", Mid, kTpcwOrdering, "MALB-SC",
      ScenarioBuilder()
          .Warmup(Seconds(240.0))
          .Measure(Seconds(240.0), "before")
          .Do(ResizeMemory{0, 1024 * kMiB})
          .Do(ResizeMemory{1, 1024 * kMiB})
          .Do(ResizeMemory{2, 1024 * kMiB})
          .Do(ResizeMemory{3, 1024 * kMiB})
          .Advance(Seconds(180.0))  // re-pack + re-warm transient
          .Measure(Seconds(240.0), "after"),
      constrained));

  return cells;
}

void ReportFailRecover(const CampaignOutputs& r, ResultSink& out, const std::string& workload,
                       const std::string& plain_id, const std::string& filter_id) {
  const CellOutput& plain = r.Get(plain_id);
  const CellOutput& filter = r.Get(filter_id);
  const ExperimentResult& p = plain.Result("churn");
  const ExperimentResult& f = filter.Result("churn");

  out.AddRun(bench::RecOf(workload + " fail/recover", plain, 0, 0, 0, "churn"));
  out.AddRun(bench::RecOf(workload + " fail/recover +UF", filter, 0, 0, 0, "churn"));
  out.AddScalar(workload + " recovery lag plain (s)", p.recovery_lag_s);
  out.AddScalar(workload + " recovery lag +UF (s)", f.recovery_lag_s);
  out.AddScalar(workload + " replay applied plain", static_cast<double>(p.replay_applied));
  out.AddScalar(workload + " replay applied +UF", static_cast<double>(f.replay_applied));
  out.AddScalar(workload + " replay filtered +UF", static_cast<double>(f.replay_filtered));
  if (p.replay_applied > 0) {
    // The churn acceptance claim: filtering must shrink the replay volume.
    out.AddScalar(workload + " UF replay volume ratio (<1 = saving)",
                  static_cast<double>(f.replay_applied) / static_cast<double>(p.replay_applied));
  }
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Churn: fault injection & elastic cluster (beyond paper)",
            "MidDB 1.8GB / RUBiS 2.2GB, 8 replicas (6 for scale-up); see docs/OPERATIONS.md");

  ReportFailRecover(r, out, "TPC-W", "failrecover/tpcw/plain", "failrecover/tpcw/filter");
  ReportFailRecover(r, out, "RUBiS", "failrecover/rubis/plain", "failrecover/rubis/filter");
  out.Note("fail/recover: replica 3 killed at t=60s and recovering from t=240s of the 600s "
           "window; update filtering (+UF) lets the recovering replica skip writesets outside "
           "its subscription, so its replay volume and recovery lag must come in below the "
           "plain cell's.");

  out.AddRun(bench::RecOf("hetero uniform 8x512MB", r.Get("hetero/uniform")));
  out.AddRun(bench::RecOf("hetero mixed (1024..128MB)", r.Get("hetero/mixed")));
  out.AddRun(bench::RecOf("hetero extreme (2048..128MB)", r.Get("hetero/extreme")));
  const double uniform_tps = r.Result("hetero/uniform").tps;
  if (uniform_tps > 0) {
    out.AddScalar("hetero mixed / uniform tps", r.Result("hetero/mixed").tps / uniform_tps);
    out.AddScalar("hetero extreme / uniform tps",
                  r.Result("hetero/extreme").tps / uniform_tps);
  }
  out.Note("hetero: every split totals 4 GB; groups only land on replicas that can host "
           "them (heterogeneous bin packing), so throughput degrades gracefully as the "
           "split gets more skewed.");

  const CellOutput& scale = r.Get("elastic/scale-up");
  out.AddRun(bench::RecOf("scale-up before (6 replicas)", scale, 0, 0, 0, "before"));
  out.AddRun(bench::RecOf("scale-up join window (+2)", scale, 0, 0, 0, "join"));
  out.AddRun(bench::RecOf("scale-up after (8 replicas)", scale, 0, 0, 0, "after"));
  out.AddScalar("scale-up joins completed in window",
                static_cast<double>(scale.Result("join").recoveries));
  const CellOutput& resize = r.Get("elastic/resize");
  out.AddRun(bench::RecOf("resize before (8x256MB)", resize, 0, 0, 0, "before"));
  out.AddRun(bench::RecOf("resize after (4x1GB + 4x256MB)", resize, 0, 0, 0, "after"));
  const double before_tps = resize.Result("before").tps;
  if (before_tps > 0) {
    out.AddScalar("resize after / before tps", resize.Result("after").tps / before_tps);
  }

  const ScenarioResult& churn_timeline = r.Get("failrecover/tpcw/plain").scenario;
  out.AddTimeline("TPC-W fail/recover throughput (plain)", churn_timeline.timeline);
}

RegisterCampaign churn{{"churn", "",
                        "fault injection & elastic cluster (fail/recover, heterogeneous "
                        "memory, scale-out, resize)",
                        "MidDB 1.8GB / RUBiS 2.2GB, 8 replicas; every ClusterMutator verb",
                        Cells, Report}};

}  // namespace
}  // namespace tashkent
