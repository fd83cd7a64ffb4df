#include "src/cluster/scenario.h"

#include <stdexcept>
#include <utility>

namespace tashkent {

const ExperimentResult& ScenarioResult::ByLabel(const std::string& label) const {
  for (const auto& m : measures) {
    if (m.label == label) {
      return m.result;
    }
  }
  throw std::invalid_argument("no measure phase labeled '" + label + "'");
}

double ScenarioResult::PhaseMeanTps(double from_s, double to_s, double skip_s) const {
  const double width = ToSeconds(kTimelineBucket);
  double total_committed = 0.0;
  int n = 0;
  for (size_t i = 0; i < timeline.size(); ++i) {
    const double t = static_cast<double>(i) * width;
    // Only buckets fully inside [from_s + skip_s, to_s) count — a straddling
    // bucket would bleed the next phase's traffic into this phase's mean.
    if (t >= from_s + skip_s && t + width <= to_s) {
      total_committed += timeline[i];
      ++n;
    }
  }
  return n > 0 ? total_committed / (static_cast<double>(n) * width) : 0.0;
}

ScenarioBuilder& ScenarioBuilder::Advance(SimDuration d) {
  phases_.push_back({ScenarioPhase::Kind::kAdvance, d, {}, {}});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Measure(SimDuration d, std::string label) {
  for (const ScenarioPhase& phase : phases_) {
    if (phase.kind == ScenarioPhase::Kind::kMeasure && phase.label == label) {
      throw std::invalid_argument("duplicate measure label '" + label + "'");
    }
  }
  phases_.push_back({ScenarioPhase::Kind::kMeasure, d, std::move(label), {}});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::At(SimDuration delay, Verb verb) {
  phases_.push_back({ScenarioPhase::Kind::kVerb, delay, {}, std::move(verb)});
  return *this;
}

ScenarioResult ScenarioBuilder::RunOn(Cluster& cluster) const {
  ScenarioResult out;
  SimDuration elapsed = Seconds(0.0);
  for (const ScenarioPhase& phase : phases_) {
    switch (phase.kind) {
      case ScenarioPhase::Kind::kAdvance:
        cluster.Advance(phase.duration);
        elapsed += phase.duration;
        break;
      case ScenarioPhase::Kind::kMeasure: {
        MeasureRecord record;
        record.label = phase.label;
        record.start = elapsed;
        record.result = cluster.Measure(phase.duration);
        elapsed += phase.duration;
        out.measures.push_back(std::move(record));
        break;
      }
      case ScenarioPhase::Kind::kVerb:
        cluster.At(phase.duration, phase.verb);
        break;
    }
  }
  out.total = elapsed;
  out.timeline = cluster.timeline_buckets();
  out.executed_events = cluster.sim().executed_events();
  return out;
}

ScenarioResult ScenarioBuilder::Run(const Workload& workload, const std::string& mix_name,
                                    const std::string& policy,
                                    const ClusterConfig& config) const {
  Cluster cluster(workload, mix_name, policy, config);
  return RunOn(cluster);
}

}  // namespace tashkent
