// Campaign "faults" — the certifier fabric under injected message faults and
// certifier failover: loss sweeps, a duplication/delay storm, scripted link
// partitions, and crash/failover cycles with epoch fencing. Reports the
// retry-protocol and availability metrics (timeouts, retries, fences, dedup
// hits, write-queue high-water mark, certifier downtime, takeover latency)
// as campaign scalars — the per-run JSON schema stays frozen.
//
// Two CI-gated invariants ride on this campaign:
//
//   * Zero lost or duplicated commits, under ANY fault plan. Every cell runs
//     the cluster directly and checks, after the scenario:
//         sum(proxy lifetime update commits) <= certifier certified count
//         certified - committed <= sum(proxy max_in_flight)
//     The lower bound catches a duplicated commit (a client acknowledged
//     twice, or a retry certified twice past the dedup window); the upper
//     bound catches a lost one (certified but never acknowledged — only
//     in-flight certifications may be outstanding at collection). Violations
//     throw, which fails the cell and the bench run. Retries never give up
//     and the cells kill no replica, so no certified-then-client-aborted
//     transaction can blur the bound.
//
//   * Fault-plan-off is byte-inert. The "inert/pair" cell runs the SAME seed
//     twice — "plain" with no fault surface touched, "armed" with the retry
//     protocol enabled under an empty FaultPlan — and requires every
//     metric (bench::RequireIdentical) AND the executed-event count to match
//     exactly. The timeout each armed certification schedules is always
//     cancelled on the response, and cancelled events do not count as
//     executed, so the armed run is provably the old proxy. scripts/ci.sh
//     additionally compares the two rendered run records byte-for-byte
//     (minus the label).
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Small() { return BuildTpcw(kTpcwSmallEbs); }

constexpr size_t kReplicas = 6;
constexpr int kClients = 6;

// Fixed client population (no calibration sweep — fault cells measure the
// retry protocol, not peak throughput) on a small cluster.
bench::CellOptions FaultOptions() {
  bench::CellOptions opts;
  opts.ram = 256 * kMiB;
  opts.replicas = kReplicas;
  opts.clients = kClients;
  opts.warmup = Seconds(30.0);
  opts.measure = Seconds(120.0);
  return opts;
}

RetryPolicy FaultRetry() {
  RetryPolicy retry;
  retry.enabled = true;
  retry.timeout = Millis(2);
  retry.backoff_base = Micros(500);
  retry.backoff_factor = 2.0;
  retry.backoff_max = Millis(50);
  retry.jitter = 0.25;
  return retry;
}

FaultPlan Loss(double p) {
  FaultPlan plan;
  plan.drop = p;
  return plan;
}

// The ASan fault-storm shape: losses, duplicates and delays all at once, with
// the extra delay routinely exceeding the 2 ms attempt timeout so late
// responses race their own retries into the dedup window.
FaultPlan Storm(double drop, double duplicate, double delay_p, SimDuration delay_mean) {
  FaultPlan plan;
  plan.drop = drop;
  plan.duplicate = duplicate;
  plan.delay_probability = delay_p;
  plan.delay_mean = delay_mean;
  return plan;
}

// Throws unless the commit ledger balances: nothing certified was lost,
// nothing committed twice (see the file comment).
void RequireZeroLoss(const Cluster& cluster, const std::string& cell, CellOutput& out) {
  uint64_t completed = 0;
  uint64_t in_flight_bound = 0;
  for (const auto& proxy : cluster.proxies()) {
    completed += proxy->lifetime_update_commits();
    in_flight_bound += static_cast<uint64_t>(proxy->max_in_flight());
  }
  const uint64_t certified = cluster.certifier().certified_count();
  if (completed > certified) {
    throw std::runtime_error("faults/" + cell + ": " + std::to_string(completed) +
                             " commits acknowledged but only " + std::to_string(certified) +
                             " certified — a retry was certified (committed) twice");
  }
  if (certified - completed > in_flight_bound) {
    throw std::runtime_error("faults/" + cell + ": " + std::to_string(certified - completed) +
                             " certified commits never reached a client (bound " +
                             std::to_string(in_flight_bound) + ") — commits were lost");
  }
  out.scalars.emplace_back("lifetime committed", static_cast<double>(completed));
  out.scalars.emplace_back("lifetime certified", static_cast<double>(certified));
  out.scalars.emplace_back("inflight bound", static_cast<double>(in_flight_bound));
}

// One fault cell: direct Cluster run (the invariant needs the proxies and the
// certifier after the scenario), scripted by `script` on top of the standard
// warmup+measure shape already present in `script`.
CampaignCell FaultCell(std::string id, FaultPlan plan, ScenarioBuilder script) {
  CampaignCell cell;
  cell.id = id;
  cell.run = [id = std::move(id), plan = std::move(plan),
              script = std::move(script)](uint64_t seed) {
    const bench::CellOptions opts = FaultOptions();
    ClusterConfig config = bench::CellConfig(seed, opts);
    config.clients_per_replica = opts.clients;
    config.faults = plan;
    config.proxy.retry = FaultRetry();

    const Workload w = Small();
    Cluster cluster(w, kTpcwOrdering, "LeastConnections", config);
    CellOutput out;
    out.workload = w.name;
    out.mix = kTpcwOrdering;
    out.policy = "LeastConnections";
    out.scenario = script.RunOn(cluster);
    out.executed_events = out.scenario.executed_events;
    RequireZeroLoss(cluster, id, out);
    return out;
  };
  return cell;
}

ScenarioBuilder PlainScript() {
  const bench::CellOptions opts = FaultOptions();
  return ScenarioBuilder().Warmup(opts.warmup).Measure(opts.measure, "measure");
}

// --- the inert dual-run cell -------------------------------------------------

// Same seed, two clusters: "plain" never touches the fault surface, "armed"
// enables the full retry protocol under an empty plan. Returns both measures;
// Report() requires them identical (including executed events).
CellOutput RunInertPair(uint64_t seed) {
  const bench::CellOptions opts = FaultOptions();
  const Workload w = Small();

  ClusterConfig plain_config = bench::CellConfig(seed, opts);
  plain_config.clients_per_replica = opts.clients;
  ScenarioResult plain_result = ScenarioBuilder()
                                    .Warmup(opts.warmup)
                                    .Measure(opts.measure, "plain")
                                    .Run(w, kTpcwOrdering, "LeastConnections", plain_config);

  ClusterConfig armed_config = bench::CellConfig(seed, opts);
  armed_config.clients_per_replica = opts.clients;
  armed_config.proxy.retry = FaultRetry();  // empty FaultPlan stays default
  ScenarioResult armed_result = ScenarioBuilder()
                                    .Warmup(opts.warmup)
                                    .Measure(opts.measure, "armed")
                                    .Run(w, kTpcwOrdering, "LeastConnections", armed_config);

  CellOutput out;
  out.workload = w.name;
  out.mix = kTpcwOrdering;
  out.policy = "LeastConnections";
  out.scalars.emplace_back("armed executed events",
                           static_cast<double>(armed_result.executed_events));
  out.scalars.emplace_back("plain executed events",
                           static_cast<double>(plain_result.executed_events));
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
  inert.id = "inert/pair";
  inert.run = RunInertPair;
  cells.push_back(std::move(inert));

  // Loss sweep: the retry protocol alone recovers every dropped message.
  cells.push_back(FaultCell("loss/1pct", Loss(0.01), PlainScript()));
  cells.push_back(FaultCell("loss/5pct", Loss(0.05), PlainScript()));
  cells.push_back(FaultCell("loss/20pct", Loss(0.20), PlainScript()));

  // Duplication/delay storm (the ASan cell of scripts/ci.sh): late responses
  // race their own retries, the certifier's dedup window absorbs the doubles.
  cells.push_back(
      FaultCell("dupdelay/storm", Storm(0.05, 0.15, 0.30, Millis(2)), PlainScript()));

  // Scripted one-way link partitions through the mutator verbs: proxy 0 loses
  // its certifier link for 5 s mid-window, proxy 1 for 2 s later on. Writes
  // queue behind the gatekeeper and drain on heal.
  cells.push_back(FaultCell("partition/heal", FaultPlan{},
                            ScenarioBuilder()
                                .Warmup(Seconds(30.0))
                                .At(Seconds(20.0), PartitionProxy{0, Seconds(5.0)})
                                .At(Seconds(60.0), PartitionProxy{1, Seconds(2.0)})
                                .Measure(Seconds(120.0), "measure")));

  // Clean crash/failover cycle: the certifier fail-stops 40 s into the
  // window, the warm standby takes over 8 s later; stale-epoch responses are
  // fenced and resent.
  cells.push_back(FaultCell("failover/clean", FaultPlan{},
                            ScenarioBuilder()
                                .Warmup(Seconds(30.0))
                                .At(Seconds(40.0), CrashCertifier{})
                                .At(Seconds(48.0), FailoverCertifier{})
                                .Measure(Seconds(120.0), "measure")));

  // Failover under a fault storm: two crash/failover cycles while the
  // channel drops and duplicates — the hardest zero-loss case.
  cells.push_back(FaultCell("failover/storm", Storm(0.05, 0.10, 0.20, Millis(1)),
                            ScenarioBuilder()
                                .Warmup(Seconds(30.0))
                                .At(Seconds(30.0), CrashCertifier{})
                                .At(Seconds(36.0), FailoverCertifier{})
                                .At(Seconds(70.0), CrashCertifier{})
                                .At(Seconds(78.0), FailoverCertifier{})
                                .Measure(Seconds(120.0), "measure")));

  return cells;
}

// A metric's scalar-key spelling: its name with '_' read as a space.
std::string ScalarName(std::string name) {
  std::replace(name.begin(), name.end(), '_', ' ');
  return name;
}

void AddFaultScalars(ResultSink& out, const std::string& key, const CellOutput& cell) {
  const ExperimentResult& res = cell.Result();
  out.AddScalar(key + " availability", res.availability);
#define TASHKENT_FAULT_SCALAR(type, name, init) \
  out.AddScalar(key + " " + ScalarName(#name), static_cast<double>(res.name));
  TASHKENT_FAULT_METRICS(TASHKENT_FAULT_SCALAR)
#undef TASHKENT_FAULT_SCALAR
  // The cell-side commit ledger (RequireZeroLoss already threw on violation;
  // scripts/ci.sh re-checks the bound from these numbers).
  for (const auto& scalar : cell.scalars) {
    out.AddScalar(key + " " + scalar.first, scalar.second);
  }
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  out.Begin("Faults: channel loss/delay/partition, retry, certifier failover",
            "SmallDB, 6 replicas, LeastConnections, retry 2ms timeout + capped backoff");

  const CellOutput& inert = r.Get("inert/pair");
  bench::RequireIdentical(inert.Result("armed"), inert.Result("plain"),
                          "inert faults cell: the armed (retry under an empty plan) and "
                          "plain runs");
  double armed_events = 0.0, plain_events = 0.0;
  for (const auto& scalar : inert.scalars) {
    if (scalar.first == "armed executed events") armed_events = scalar.second;
    if (scalar.first == "plain executed events") plain_events = scalar.second;
  }
  if (armed_events != plain_events) {
    throw std::runtime_error(
        "inert faults cell: armed and plain runs executed different event counts — "
        "the always-cancelled retry timers are not event-inert");
  }
  out.AddRun(bench::RecOf("inert armed (retry shadow)", inert, 0, 0, 0, "armed"));
  out.AddRun(bench::RecOf("inert plain (fault-free)", inert, 0, 0, 0, "plain"));
  out.AddScalar("inert pair identical", 1.0);
  out.AddScalar("armed executed events", armed_events);
  out.AddScalar("plain executed events", plain_events);

  const struct {
    const char* id;
    const char* label;
  } kFaultCells[] = {
      {"loss/1pct", "loss 1%"},
      {"loss/5pct", "loss 5%"},
      {"loss/20pct", "loss 20%"},
      {"dupdelay/storm", "dup+delay storm"},
      {"partition/heal", "partition heal"},
      {"failover/clean", "failover clean"},
      {"failover/storm", "failover storm"},
  };
  for (const auto& fc : kFaultCells) {
    const CellOutput& cell = r.Get(fc.id);
    out.AddRun(bench::RecOf(fc.label, cell));
    AddFaultScalars(out, fc.label, cell);
    // Reached only when the cell's in-run RequireZeroLoss did not throw.
    out.AddScalar(std::string(fc.label) + " invariant ok", 1.0);
  }

  out.Note(
      "Zero-loss ledger: per cell, acknowledged commits <= certified commits and the "
      "overshoot stays within the summed gatekeeper bound (in-flight certifications).");
  out.Note(
      "inert/pair runs one seed twice (retry armed under an empty plan vs fault-free) "
      "and requires identical results and executed-event counts.");
  out.AddTimeline("failover/storm", r.Get("failover/storm").scenario.timeline,
                  r.Get("failover/storm").scenario.timeline_bucket);
}

RegisterCampaign faults{{"faults", "",
                         "Faults: channel loss/delay/partition, retry, certifier failover",
                         "SmallDB, 6 replicas, LeastConnections, retry + failover fabric",
                         Cells, Report}};

}  // namespace
}  // namespace tashkent
