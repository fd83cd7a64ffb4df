// ScenarioBuilder: scripted phases are equivalent to the raw Cluster hooks,
// and JsonSink output round-trips its numeric fields.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/cluster/experiment.h"
#include "src/cluster/scenario.h"
#include "src/cluster/sink.h"
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
  EXPECT_EQ(scripted_result.committed, raw_result.committed);
  EXPECT_EQ(scripted_result.aborted, raw_result.aborted);
  EXPECT_DOUBLE_EQ(scripted_result.tps, raw_result.tps);
  EXPECT_DOUBLE_EQ(scripted_result.mean_response_s, raw_result.mean_response_s);
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
  EXPECT_EQ(direct.committed, scenario.ByLabel("m").committed);
  EXPECT_DOUBLE_EQ(direct.tps, scenario.ByLabel("m").tps);
}

// Extracts the number following `"key": ` in a JSON string.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) {
    return -1e300;
  }
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(Scenario, JsonSinkRoundTripsNumericFields) {
  RunRecord rec;
  rec.label = "row \"quoted\"";  // exercises escaping
  rec.policy = "MALB-SC";
  rec.workload = "TPC-W";
  rec.mix = "ordering";
  rec.paper_tps = 76.0;
  rec.result.tps = 73.4567891234567;
  rec.result.mean_response_s = 0.8123456789012345;
  rec.result.p95_response_s = 2.345678901234567;
  rec.result.committed = 17654;
  rec.result.aborted = 321;
  rec.result.read_kb_per_txn = 19.87654321098765;
  rec.result.write_kb_per_txn = 12.34567890123456;
  GroupReport g;
  g.types = {"BestSeller"};
  g.replicas = 2;
  rec.result.groups.push_back(g);

  const std::string path = "scenario_test_sink.json";
  JsonSink sink(path);
  sink.Begin("unit", "round-trip check");
  sink.AddRun(rec);
  sink.AddRatio("uf/malb", 1.4868421052631579, 1.476543210987654);
  sink.AddScalar("speedup", 25.123456789012345);
  sink.Finish();

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());

  // Every numeric field parses back to exactly the stored double
  // (max_digits10 rendering).
  EXPECT_DOUBLE_EQ(JsonNumber(json, "tps"), rec.result.tps);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "mean_response_s"), rec.result.mean_response_s);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "p95_response_s"), rec.result.p95_response_s);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "read_kb_per_txn"), rec.result.read_kb_per_txn);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "write_kb_per_txn"), rec.result.write_kb_per_txn);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "paper_tps"), 76.0);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "committed"), 17654.0);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "aborted"), 321.0);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "measured"), 1.476543210987654);
  EXPECT_DOUBLE_EQ(JsonNumber(json, "speedup"), 25.123456789012345);
  EXPECT_NE(json.find("\"replicas\":2"), std::string::npos);
  EXPECT_NE(json.find("BestSeller"), std::string::npos);
  EXPECT_NE(json.find("row \\\"quoted\\\""), std::string::npos);
}

}  // namespace
}  // namespace tashkent
