// Campaign "marathon" — multi-hour simulated churn proving the bounded
// certifier log and age-independent checkpoint joins (beyond the paper;
// docs/OPERATIONS.md "Checkpoints and log pruning" is the operator story).
//
// Two questions a cluster that lives for days must answer, and the cells
// that answer them:
//   * bounded/legacy — six 20-minute churn epochs (kill/recover every epoch,
//     one AddReplica, one ResizeMemory) under identical load. With
//     auto-pruning on (`bounded`), the certifier log's chunk count and arena
//     bytes must PLATEAU across epochs: the prune floor chases the slowest
//     replica, so log memory is bounded by churn depth, not uptime. With the
//     checkpoint machinery off (`legacy`), the same metrics grow
//     monotonically — the pre-PR-7 behavior kept as the control.
//   * join-age/checkpoint vs join-age/replay — one replica joins a young
//     cluster, another joins the same cluster ~40 simulated minutes later.
//     Checkpoint joins install a fixed-size image plus a short suffix
//     replay, so join latency is independent of cluster age; legacy joins
//     replay the whole log, so the old join pays for every commit since
//     version 0.
//
// Tracked metrics (per-run JSON columns; scripts/ci.sh gates on the
// manifest): log_chunks_hwm, arena_bytes_hwm, join_latency_s, availability.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Mid() { return BuildTpcw(kTpcwMediumEbs); }

constexpr size_t kReplicas = 6;
constexpr int kEpochs = 6;
constexpr double kEpochSeconds = 1200.0;  // 6 x 20 min = 2 simulated hours

// Six churn epochs: each kills one replica a minute in and recovers it four
// minutes later; epoch 2 also grows the cluster by one replica and epoch 4
// resizes replica 0. Replica 0 is never the kill victim (it is the resize
// target), so victims rotate over 1..5.
ScenarioBuilder MarathonScript() {
  ScenarioBuilder script;
  script.Warmup(Seconds(240.0));
  for (int e = 0; e < kEpochs; ++e) {
    const size_t victim = 1 + static_cast<size_t>(e) % (kReplicas - 1);
    script.At(Seconds(60.0), KillReplica{victim});
    script.At(Seconds(300.0), RecoverReplica{victim});
    if (e == 2) {
      script.At(Seconds(600.0), AddReplica{});
    }
    if (e == 4) {
      script.At(Seconds(600.0), ResizeMemory{0, 1024 * kMiB});
    }
    script.Measure(Seconds(kEpochSeconds), "epoch" + std::to_string(e));
  }
  return script;
}

// Join-age probe: the same join performed against a young cluster and again
// after ~40 more simulated minutes of commits. Each join gets a 900 s window
// so even the legacy full-log replay completes inside its measure.
ScenarioBuilder JoinAgeScript() {
  return ScenarioBuilder()
      .Warmup(Seconds(240.0))
      .At(Seconds(30.0), AddReplica{})
      .Measure(Seconds(900.0), "join-young")
      .Advance(Seconds(2400.0))
      .At(Seconds(30.0), AddReplica{})
      .Measure(Seconds(900.0), "join-old");
}

bench::CellOptions MarathonOptions(bool legacy) {
  bench::CellOptions opts;
  opts.replicas = kReplicas;
  opts.clients = 6;  // fixed population: the campaign tracks memory + joins, not peak tps
  if (legacy) {
    opts.tweak = [](ClusterConfig& config) {
      // The pre-checkpoint control: joins replay the whole log and nothing
      // ever prunes, so log memory grows with uptime.
      config.checkpoint.checkpoint_join = false;
      config.checkpoint.auto_prune = false;
    };
  }
  return opts;
}

std::vector<CampaignCell> Cells() {
  return {
      bench::ScenarioCell("bounded", Mid, kTpcwOrdering, "MALB-SC", MarathonScript(),
                          MarathonOptions(false)),
      bench::ScenarioCell("legacy", Mid, kTpcwOrdering, "MALB-SC", MarathonScript(),
                          MarathonOptions(true)),
      bench::ScenarioCell("join-age/checkpoint", Mid, kTpcwOrdering, "MALB-SC",
                          JoinAgeScript(), MarathonOptions(false)),
      bench::ScenarioCell("join-age/replay", Mid, kTpcwOrdering, "MALB-SC",
                          JoinAgeScript(), MarathonOptions(true)),
  };
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Marathon: bounded log & age-independent joins (beyond paper)",
            "MidDB 1.8GB, 6 replicas, 6 clients/replica, 6 x 20 min churn epochs");

  const CellOutput& bounded = r.Get("bounded");
  const CellOutput& legacy = r.Get("legacy");
  double bounded_avail = 1.0;
  for (int e = 0; e < kEpochs; ++e) {
    const std::string label = "epoch" + std::to_string(e);
    out.AddRun(bench::RecOf("bounded " + label, bounded, 0, 0, 0, label));
    out.AddRun(bench::RecOf("legacy " + label, legacy, 0, 0, 0, label));
    bounded_avail = std::min(bounded_avail, bounded.Result(label).availability);
  }

  // The bound: with auto-pruning the log's high-water marks must plateau —
  // the last epoch sees no more log memory than the early epochs did (modulo
  // the churn window a down replica pins open). Legacy grows every epoch.
  const ExperimentResult& b1 = bounded.Result("epoch1");
  const ExperimentResult& b5 = bounded.Result("epoch5");
  const ExperimentResult& l1 = legacy.Result("epoch1");
  const ExperimentResult& l5 = legacy.Result("epoch5");
  out.AddScalar("bounded log chunks hwm epoch1", static_cast<double>(b1.log_chunks_hwm));
  out.AddScalar("bounded log chunks hwm epoch5", static_cast<double>(b5.log_chunks_hwm));
  out.AddScalar("legacy log chunks hwm epoch1", static_cast<double>(l1.log_chunks_hwm));
  out.AddScalar("legacy log chunks hwm epoch5", static_cast<double>(l5.log_chunks_hwm));
  out.AddScalar("bounded arena bytes hwm epoch5", static_cast<double>(b5.arena_bytes_hwm));
  out.AddScalar("legacy arena bytes hwm epoch5", static_cast<double>(l5.arena_bytes_hwm));
  out.AddScalar("bounded/legacy log chunks hwm epoch5 ratio",
                l5.log_chunks_hwm > 0 ? static_cast<double>(b5.log_chunks_hwm) /
                                            static_cast<double>(l5.log_chunks_hwm)
                                      : 0.0);
  out.AddScalar("bounded min epoch availability", bounded_avail);
  out.Note("bounded vs legacy: identical 2-hour churn script; auto-pruning keeps the "
           "bounded cell's log chunk/arena high-water marks flat across epochs while the "
           "legacy cell's grow monotonically with uptime.");

  // Join latency vs cluster age: a checkpoint join costs the same whether the
  // cluster is 4 minutes or 45 minutes old; a legacy join replays the whole
  // log and slows down with age.
  const CellOutput& ck = r.Get("join-age/checkpoint");
  const CellOutput& rp = r.Get("join-age/replay");
  out.AddRun(bench::RecOf("checkpoint join young", ck, 0, 0, 0, "join-young"));
  out.AddRun(bench::RecOf("checkpoint join old", ck, 0, 0, 0, "join-old"));
  out.AddRun(bench::RecOf("replay join young", rp, 0, 0, 0, "join-young"));
  out.AddRun(bench::RecOf("replay join old", rp, 0, 0, 0, "join-old"));
  const double ck_young = ck.Result("join-young").join_latency_s;
  const double ck_old = ck.Result("join-old").join_latency_s;
  const double rp_young = rp.Result("join-young").join_latency_s;
  const double rp_old = rp.Result("join-old").join_latency_s;
  out.AddScalar("checkpoint join latency young (s)", ck_young);
  out.AddScalar("checkpoint join latency old (s)", ck_old);
  out.AddScalar("replay join latency young (s)", rp_young);
  out.AddScalar("replay join latency old (s)", rp_old);
  if (ck_young > 0) {
    out.AddScalar("checkpoint join old/young latency ratio", ck_old / ck_young);
  }
  if (rp_young > 0) {
    out.AddScalar("replay join old/young latency ratio", rp_old / rp_young);
  }
  out.Note("join-age: both cells join one replica into a ~4-minute-old cluster and another "
           "~40 minutes later. Checkpoint joins transfer a fixed-size image (old/young "
           "ratio ~1); legacy joins replay the whole log, so the old join pays for every "
           "commit since version 0.");

  const ScenarioResult& timeline = bounded.scenario;
  out.AddTimeline("marathon bounded throughput", timeline.timeline, timeline.timeline_bucket);
}

RegisterCampaign marathon{{"marathon", "",
                           "bounded certifier log & age-independent checkpoint joins "
                           "(2h simulated churn)",
                           "MidDB 1.8GB, 6 replicas, kill/recover/add/resize epochs",
                           Cells, Report}};

}  // namespace
}  // namespace tashkent
