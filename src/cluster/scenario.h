// ScenarioBuilder: phase-scripted experiment runs.
//
// The paper's results come in exactly two shapes: a single warmup+measure
// window per policy (Figures 3-5, 7-10, all tables), and a timeline of
// phases with mix switches, crashes, and allocation freezes (Figure 6).
// ScenarioBuilder scripts both as an ordered phase list executed by one
// driver:
//
//   const ScenarioResult r = ScenarioBuilder()
//                                .Warmup(Seconds(240.0))
//                                .Measure(Seconds(240.0), "steady")
//                                .Do(SwitchMix{"browsing"})
//                                .Advance(Seconds(300.0))
//                                .Measure(Seconds(240.0), "after-switch")
//                                .Run(workload, "ordering", "MALB-SC", config);
//   r.ByLabel("after-switch").tps;
//
// Phase semantics (executed strictly in list order):
//   * Warmup(d) / Advance(d) — advance simulated time by d; anything measured
//     during the window is discarded. The two are aliases; Warmup names
//     intent at the start of a script, Advance mid-script (e.g. letting MALB
//     re-converge after a mix switch).
//   * Measure(d, label)      — reset the metric counters, advance by d, and
//     record one ExperimentResult under `label`. Labels are the lookup key
//     for ScenarioResult::ByLabel and must be unique per script: Measure
//     throws std::invalid_argument on a label an earlier phase already used.
//   * Do(verb)               — apply a Verb (src/cluster/verb.h: churn,
//     certifier faults, mix switches, population changes, allocation
//     freezes) at the current instant. Zero duration.
//   * At(d, verb)            — schedule the verb as a simulator event `d`
//     after the instant this phase executes, then move on immediately:
//     `.At(Seconds(120.0), KillReplica{3}).Measure(Seconds(600.0), "churn")`
//     fails replica 3 two minutes INTO the measure window. Zero duration.
//     Do(v) is At(0, v). Both go through Cluster::At, so the cluster owns a
//     scheduled verb: one still pending when RunOn returns fires during the
//     cluster's next advance (a later RunOn, say).
//
// Each Measure phase resets the metric counters, runs for its duration, and
// records one labeled ExperimentResult. The merged throughput timeline spans
// the whole scenario (warmups included), bucketed per kTimelineBucket —
// the Figure 6 plot falls straight out.
// MeasureRecord::start is scenario-relative simulated time (the sum of the
// durations executed before the window), so PhaseMeanTps windows line up
// with the script.
//
// A ScenarioBuilder holds no cluster state: the same script can Run against
// any (workload, mix, policy, config), or RunOn an existing Cluster to
// continue its life — campaign cells rely on this to stay independent.
#ifndef SRC_CLUSTER_SCENARIO_H_
#define SRC_CLUSTER_SCENARIO_H_

#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/verb.h"

namespace tashkent {

struct ScenarioPhase {
  enum class Kind {
    kAdvance,  // advance, metrics discarded (Warmup and Advance)
    kMeasure,  // reset counters, advance, record a labeled result
    kVerb,     // apply `verb` now (duration 0) or schedule it `duration` later
  };
  Kind kind = Kind::kAdvance;
  // kAdvance / kMeasure: the window length. kVerb: the schedule offset from
  // the instant the phase executes (0 = apply now).
  SimDuration duration = 0;
  std::string label;  // kMeasure only
  Verb verb;          // kVerb only
};

struct MeasureRecord {
  std::string label;
  // Simulated time at which this measure window started (scenario-relative).
  SimDuration start = Seconds(0.0);
  ExperimentResult result;
};

struct ScenarioResult {
  std::vector<MeasureRecord> measures;
  // Whole-scenario committed transactions per kTimelineBucket (warmups
  // included).
  std::vector<double> timeline;
  SimDuration total = Seconds(0.0);  // total simulated scenario time
  // Simulator events executed over the cluster's whole life (perf accounting
  // for the campaign manifest).
  uint64_t executed_events = 0;

  // The result of the measure phase with the given label; throws
  // std::invalid_argument when no such phase exists.
  const ExperimentResult& ByLabel(const std::string& label) const;

  // Mean tps over timeline buckets fully inside [from_s, to_s), skipping the
  // first `skip_s` seconds (reconfiguration transients). The Figure 6
  // phase-mean helper.
  double PhaseMeanTps(double from_s, double to_s, double skip_s = 0.0) const;
};

class ScenarioBuilder {
 public:
  ScenarioBuilder& Warmup(SimDuration d) { return Advance(d); }
  ScenarioBuilder& Advance(SimDuration d);
  ScenarioBuilder& Measure(SimDuration d, std::string label);
  ScenarioBuilder& Do(Verb verb) { return At(0, std::move(verb)); }
  ScenarioBuilder& At(SimDuration delay, Verb verb);

  const std::vector<ScenarioPhase>& phases() const { return phases_; }

  // Executes the scripted phases on an existing cluster (which may already
  // have run other phases; the merged timeline still covers its whole life).
  ScenarioResult RunOn(Cluster& cluster) const;

  // Builds a cluster for (workload, mix, policy, config) and executes the
  // phases on it. config.clients_per_replica must be concrete (calibrate
  // first; see experiment.h).
  ScenarioResult Run(const Workload& workload, const std::string& mix_name,
                     const std::string& policy, const ClusterConfig& config) const;

 private:
  std::vector<ScenarioPhase> phases_;
};

}  // namespace tashkent

#endif  // SRC_CLUSTER_SCENARIO_H_
