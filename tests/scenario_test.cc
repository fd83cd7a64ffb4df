// ScenarioBuilder: scripted phases are equivalent to the raw Cluster hooks,
// and the ToJson result document round-trips its numeric fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/experiment.h"
#include "src/cluster/scenario.h"
#include "src/cluster/sink.h"
#include "src/common/json.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

ClusterConfig TestConfig(uint64_t seed = 42) {
  ClusterConfig c;
  c.replicas = 4;
  c.replica.memory = 512 * kMiB;
  c.clients_per_replica = 3;
  c.seed = seed;
  return c;
}

TEST(Scenario, ScriptedCrashRestartMatchesRawHooks) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);

  // Scripted: warmup, crash replica 1, ride the transient, restart it,
  // measure.
  const ScenarioResult scripted = ScenarioBuilder()
                                      .Warmup(Seconds(30.0))
                                      .Do(KillReplica{1})
                                      .Advance(Seconds(30.0))
                                      .Do(RecoverReplica{1})
                                      .Advance(Seconds(15.0))
                                      .Measure(Seconds(30.0), "after-restart")
                                      .Run(w, kTpcwShopping, "LeastConnections", TestConfig());

  // The same sequence issued through raw Cluster hooks with the same seed.
  Cluster raw(w, kTpcwShopping, "LeastConnections", TestConfig());
  raw.Advance(Seconds(30.0));
  raw.KillReplica(1);
  raw.Advance(Seconds(30.0));
  raw.RecoverReplica(1);
  raw.Advance(Seconds(15.0));
  const ExperimentResult raw_result = raw.Measure(Seconds(30.0));

  const ExperimentResult& scripted_result = scripted.ByLabel("after-restart");
  EXPECT_EQ(DifferingMetrics(scripted_result, raw_result), std::vector<std::string>{});
}

TEST(Scenario, MeasurePhasesAreLabeledAndTimelineSpansRun) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  const ScenarioResult r = ScenarioBuilder()
                               .Warmup(Seconds(30.0))
                               .Measure(Seconds(60.0), "first")
                               .Do(SwitchMix{kTpcwBrowsing})
                               .Advance(Seconds(30.0))
                               .Measure(Seconds(60.0), "second")
                               .Run(w, kTpcwShopping, "LeastConnections", TestConfig());
  ASSERT_EQ(r.measures.size(), 2u);
  EXPECT_EQ(r.measures[0].label, "first");
  EXPECT_EQ(r.measures[1].label, "second");
  EXPECT_DOUBLE_EQ(ToSeconds(r.measures[0].start), 30.0);
  EXPECT_DOUBLE_EQ(ToSeconds(r.measures[1].start), 120.0);
  EXPECT_DOUBLE_EQ(ToSeconds(r.total), 180.0);
  EXPECT_GT(r.ByLabel("first").committed, 0u);
  EXPECT_GT(r.ByLabel("second").committed, 0u);
  EXPECT_THROW(r.ByLabel("nonexistent"), std::invalid_argument);
  // 180 s of run at 30 s buckets: roughly 6 buckets recorded.
  EXPECT_GE(r.timeline.size(), 5u);
  EXPECT_LE(r.timeline.size(), 7u);
  // PhaseMeanTps over the whole run is positive and bounded by the busiest
  // bucket.
  EXPECT_GT(r.PhaseMeanTps(0.0, 180.0), 0.0);
}

TEST(Scenario, MeasureRejectsADuplicateLabel) {
  // ByLabel could only ever return the first of two equally labeled windows,
  // so the second Measure is refused while the script is being built.
  ScenarioBuilder b;
  b.Warmup(Seconds(30.0)).Measure(Seconds(60.0), "steady").Advance(Seconds(10.0));
  EXPECT_THROW(b.Measure(Seconds(60.0), "steady"), std::invalid_argument);
  EXPECT_EQ(b.phases().size(), 3u);  // the refused phase was not appended
  b.Measure(Seconds(60.0), "after");
  EXPECT_EQ(b.phases().size(), 4u);
}

TEST(Scenario, RunExperimentEqualsTwoPhaseScenario) {
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClusterConfig config = TestConfig(7);
  const ExperimentResult direct =
      RunExperiment(w, kTpcwShopping, "LeastConnections", config,
                    config.clients_per_replica, Seconds(30.0), Seconds(60.0));
  const ScenarioResult scenario = ScenarioBuilder()
                                      .Warmup(Seconds(30.0))
                                      .Measure(Seconds(60.0), "m")
                                      .Run(w, kTpcwShopping, "LeastConnections", config);
  EXPECT_EQ(DifferingMetrics(direct, scenario.ByLabel("m")), std::vector<std::string>{});
}

// Gives each run-list field a value distinct from every other field (and from
// its default) and returns the value the JSON document must hold for it.
json::Value SetDistinct(double& field, int index) {
  field = index + 1.0 / 3.0;  // full max_digits10 mantissa
  return field;
}
json::Value SetDistinct(uint64_t& field, int index) {
  field = 1000 + static_cast<uint64_t>(index);
  return static_cast<double>(field);
}
json::Value SetDistinct(bool& field, int index) {
  (void)index;
  field = true;
  return field;
}

TEST(Scenario, ToJsonRoundTripsNumericFields) {
  RunRecord rec;
  rec.label = "row \"quoted\"";  // exercises escaping
  rec.policy = "MALB-SC";
  rec.workload = "TPC-W";
  rec.mix = "ordering";
  rec.paper_tps = 76.0;
  // Every run-record column, in list order, with its expected JSON value.
  std::vector<std::pair<std::string, json::Value>> expected;
  int index = 0;
#define DISTINCT_METRIC(type, name, init) \
  expected.emplace_back(#name, SetDistinct(rec.result.name, index++));
  TASHKENT_RUN_METRICS(DISTINCT_METRIC)
#undef DISTINCT_METRIC
  ASSERT_EQ(expected.size(), 22u);
  GroupReport g;
  g.types = {"BestSeller"};
  g.replicas = 2;
  rec.result.groups.push_back(g);

  ResultSink sink;
  sink.Begin("unit", "round-trip check");
  sink.AddRun(rec);
  sink.AddRatio("uf/malb", 1.4868421052631579, 1.476543210987654);
  sink.AddScalar("speedup", 25.123456789012345);

  // The written text parses back to exactly the built document.
  const json::Value built = ToJson(sink);
  const json::Value doc = json::Value::Parse(built.Dump(2));
  EXPECT_TRUE(doc == built) << built.Dump(2);

  // The run object holds the record coordinates, then exactly the run-list
  // metrics in list order, each parsing back to exactly the stored value
  // (max_digits10 rendering), then the groups.
  const json::Value& run = doc.At("runs").Items().at(0);
  const std::set<std::string> non_metric = {
      "label", "policy", "workload", "mix", "paper_tps", "paper_write_kb", "paper_read_kb",
      "groups"};
  std::vector<std::pair<std::string, json::Value>> metrics;
  for (const auto& member : run.Members()) {
    if (non_metric.count(member.first) == 0) {
      metrics.push_back(member);
    }
  }
  ASSERT_EQ(metrics.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(metrics[i].first, expected[i].first) << "column " << i;
    EXPECT_TRUE(metrics[i].second == expected[i].second)
        << expected[i].first << ": " << metrics[i].second.Dump();
  }

  EXPECT_EQ(run.At("label").AsString(), "row \"quoted\"");
  EXPECT_EQ(run.At("paper_tps").AsNumber(), 76.0);
  EXPECT_EQ(doc.At("ratios").Items().at(0).At("measured").AsNumber(), 1.476543210987654);
  EXPECT_EQ(doc.At("scalars").At("speedup").AsNumber(), 25.123456789012345);
  const json::Value& group = run.At("groups").Items().at(0);
  EXPECT_EQ(group.At("replicas").AsNumber(), 2.0);
  EXPECT_EQ(group.At("types").Items().at(0).AsString(), "BestSeller");
}

}  // namespace
}  // namespace tashkent
