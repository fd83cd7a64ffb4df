// Campaign layer: grid expansion, seed derivation, parallel == serial
// determinism, failure containment, and manifest JSON round-tripping.
#include "src/cluster/campaign.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/json.h"
#include "src/common/worker_pool.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

Workload Small() { return BuildTpcw(kTpcwSmallEbs); }

// A fast real campaign: tiny clusters, fixed clients (no calibration sweep).
bench::CellOptions FastOptions() {
  bench::CellOptions opts;
  opts.ram = 256 * kMiB;
  opts.replicas = 2;
  opts.clients = 3;
  opts.warmup = Seconds(10.0);
  opts.measure = Seconds(30.0);
  return opts;
}

Campaign FastCampaign() {
  Campaign campaign;
  campaign.name = "test-fast";
  campaign.title = "campaign_test fixture";
  campaign.cells = [] {
    const bench::CellOptions opts = FastOptions();
    return std::vector<CampaignCell>{
        bench::PolicyCell("lc", Small, kTpcwOrdering, "LeastConnections", opts),
        bench::PolicyCell("rr", Small, kTpcwOrdering, "RoundRobin", opts),
        bench::PolicyCell("malb-sc", Small, kTpcwOrdering, "MALB-SC", opts),
        bench::PolicyCell("lard", Small, kTpcwOrdering, "LARD", opts),
        bench::StandaloneCell("single", Small, kTpcwOrdering, opts),
    };
  };
  return campaign;
}

CampaignRunOptions Quiet(int jobs) {
  CampaignRunOptions options;
  options.jobs = jobs;
  options.progress = false;
  return options;
}

// --- seeds -------------------------------------------------------------------

TEST(CellSeedTest, PureFunctionOfCoordinates) {
  EXPECT_EQ(CellSeed("fig3", "lc", 42), CellSeed("fig3", "lc", 42));
  EXPECT_NE(CellSeed("fig3", "lc", 42), CellSeed("fig3", "lard", 42));
  EXPECT_NE(CellSeed("fig3", "lc", 42), CellSeed("fig4", "lc", 42));
  EXPECT_NE(CellSeed("fig3", "lc", 42), CellSeed("fig3", "lc", 43));
  // The campaign/cell join is unambiguous: ("a", "b/c") != ("a/b", "c").
  EXPECT_NE(CellSeed("a", "b/c", 42), CellSeed("a/b", "c", 42));
}

// --- grid expansion ----------------------------------------------------------

TEST(CampaignTest, ExpandsDeclaredGrid) {
  const Campaign campaign = FastCampaign();
  const CampaignRunRecord record = RunCampaign(campaign, Quiet(1));
  ASSERT_EQ(record.cells.size(), 5u);
  EXPECT_EQ(record.cells[0].id, "lc");
  EXPECT_EQ(record.cells[4].id, "single");
  for (const CellRecord& cell : record.cells) {
    EXPECT_TRUE(cell.ok) << cell.id << ": " << cell.error;
    EXPECT_EQ(cell.seed, CellSeed("test-fast", cell.id, 42));
    EXPECT_GT(cell.output.Result().committed, 0u) << cell.id;
  }
}

TEST(CampaignTest, DuplicateCellIdsThrow) {
  Campaign campaign;
  campaign.name = "test-dup";
  campaign.cells = [] {
    CampaignCell a;
    a.id = "same";
    a.run = [](uint64_t) { return CellOutput{}; };
    CampaignCell b = a;
    return std::vector<CampaignCell>{a, b};
  };
  EXPECT_THROW(RunCampaign(campaign, Quiet(1)), std::invalid_argument);
}

TEST(CampaignTest, EmptyCellIdThrows) {
  Campaign campaign;
  campaign.name = "test-empty-id";
  campaign.cells = [] {
    CampaignCell a;
    a.run = [](uint64_t) { return CellOutput{}; };
    return std::vector<CampaignCell>{a};
  };
  EXPECT_THROW(RunCampaign(campaign, Quiet(1)), std::invalid_argument);
}

// --- determinism: parallel == serial ----------------------------------------

TEST(CampaignTest, ParallelRunBitIdenticalToSerial) {
  const Campaign campaign = FastCampaign();
  const CampaignRunRecord serial = RunCampaign(campaign, Quiet(1));
  const CampaignRunRecord parallel = RunCampaign(campaign, Quiet(4));

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    const CellRecord& a = serial.cells[i];
    const CellRecord& b = parallel.cells[i];
    SCOPED_TRACE(a.id);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.seed, b.seed);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    const ExperimentResult& ra = a.output.Result();
    const ExperimentResult& rb = b.output.Result();
    // Bit-identical, not approximately equal: same seed, same event order.
    EXPECT_EQ(DifferingMetrics(ra, rb), std::vector<std::string>{});
    EXPECT_EQ(a.output.scenario.timeline, b.output.scenario.timeline);
  }
}

// --- failure containment -----------------------------------------------------

TEST(CampaignTest, CellFailureIsContained) {
  Campaign campaign;
  campaign.name = "test-fail";
  campaign.cells = [] {
    CampaignCell bad;
    bad.id = "bad";
    bad.run = [](uint64_t) -> CellOutput { throw std::runtime_error("boom"); };
    CampaignCell good;
    good.id = "good";
    good.run = [](uint64_t) {
      CellOutput out;
      out.scalars.emplace_back("x", 1.0);
      return out;
    };
    return std::vector<CampaignCell>{bad, good};
  };
  bool report_saw_good = false;
  campaign.report = [&report_saw_good](const CampaignOutputs& r, ResultSink&) {
    EXPECT_FALSE(r.Ok("bad"));
    EXPECT_TRUE(r.Ok("good"));
    report_saw_good = r.Get("good").scalars.size() == 1;
    EXPECT_THROW(r.Get("bad"), std::runtime_error);
    EXPECT_THROW(r.Get("no-such-cell"), std::invalid_argument);
  };
  const CampaignRunRecord record = RunCampaign(campaign, Quiet(2));
  EXPECT_TRUE(report_saw_good);
  EXPECT_FALSE(record.cells[0].ok);
  EXPECT_EQ(record.cells[0].error, "boom");
  EXPECT_TRUE(record.cells[1].ok);
}

TEST(CampaignTest, FailedCellNotDoubleCountedWhenReportAborts) {
  Campaign campaign;
  campaign.name = "test-fail-report";
  campaign.cells = [] {
    CampaignCell bad;
    bad.id = "bad";
    bad.run = [](uint64_t) -> CellOutput { throw std::runtime_error("boom"); };
    return std::vector<CampaignCell>{bad};
  };
  // The report does NOT guard Get: it aborts on the failed cell, which must
  // not be counted as a second failure.
  campaign.report = [](const CampaignOutputs& r, ResultSink&) { r.Get("bad"); };
  const CampaignRunSummary summary = RunCampaigns({&campaign}, Quiet(1));
  EXPECT_EQ(summary.failed_cells, 1);
  EXPECT_NE(summary.campaigns[0].report_error.find("boom"), std::string::npos);

  // A report that throws with every cell green IS a new failure.
  Campaign report_bug;
  report_bug.name = "test-report-bug";
  report_bug.cells = [] { return std::vector<CampaignCell>{}; };
  report_bug.report = [](const CampaignOutputs&, ResultSink&) {
    throw std::logic_error("report bug");
  };
  const CampaignRunSummary summary2 = RunCampaigns({&report_bug}, Quiet(1));
  EXPECT_EQ(summary2.failed_cells, 1);
  EXPECT_EQ(summary2.campaigns[0].report_error, "report bug");
}

// A report that throws still prints and writes everything it recorded before
// the throw, followed by the "report aborted" note.
TEST(CampaignTest, AbortedReportKeepsWhatItRecorded) {
  Campaign campaign;
  campaign.name = "test-report-abort";
  campaign.cells = [] { return std::vector<CampaignCell>{}; };
  campaign.report = [](const CampaignOutputs&, ResultSink& out) {
    out.Begin("Abort test", "");
    out.AddScalar("before throw", 7.0);
    throw std::logic_error("report bug");
  };
  CampaignRunOptions options = Quiet(1);
  options.json_dir = "campaign-test-out";
  testing::internal::CaptureStdout();
  const CampaignRunRecord record = RunCampaign(campaign, options);
  const std::string console = testing::internal::GetCapturedStdout();

  const size_t header = console.find("== Abort test ==");
  const size_t scalar = console.find("before throw");
  const size_t note = console.find("report aborted: report bug");
  ASSERT_NE(header, std::string::npos) << console;
  ASSERT_NE(scalar, std::string::npos) << console;
  ASSERT_NE(note, std::string::npos) << console;
  EXPECT_LT(header, scalar);
  EXPECT_LT(scalar, note);

  ASSERT_FALSE(record.json_path.empty());
  std::ifstream file(record.json_path);
  std::stringstream text;
  text << file.rdbuf();
  const json::Value doc = json::Value::Parse(text.str());
  EXPECT_EQ(doc.At("bench").AsString(), "Abort test");
  EXPECT_EQ(doc.At("scalars").At("before throw").AsNumber(), 7.0);
  ASSERT_EQ(doc.At("notes").size(), 1u);
  EXPECT_EQ(doc.At("notes").Items()[0].AsString(), "report aborted: report bug");
  EXPECT_EQ(doc.Members().back().first, "cells");
}

// --- manifest ----------------------------------------------------------------

TEST(CampaignTest, ManifestJsonRoundTrips) {
  const Campaign campaign = FastCampaign();
  CampaignRunSummary summary;
  summary.jobs = 3;
  summary.base_seed = 7;
  summary.wall_s = 1.25;
  summary.campaigns.push_back({});
  CampaignRunRecord& record = summary.campaigns.back();
  record.campaign = &campaign;
  record.json_path = "out/BENCH_test-fast.json";
  record.wall_s = 1.0;
  CellRecord ok_cell;
  ok_cell.id = "lc";
  ok_cell.seed = CellSeed("test-fast", "lc", 7);
  ok_cell.ok = true;
  ok_cell.wall_s = 0.5;
  record.cells.push_back(ok_cell);
  CellRecord bad_cell;
  bad_cell.id = "weird \"label\"\n";
  bad_cell.seed = 1;
  bad_cell.error = "exploded";
  record.cells.push_back(bad_cell);
  summary.failed_cells = 1;

  const json::Value doc = ManifestJson(summary);
  // Pretty and compact dumps both parse back to the same document.
  const json::Value reparsed = json::Value::Parse(doc.Dump(2));
  EXPECT_EQ(doc, reparsed);
  EXPECT_EQ(doc, json::Value::Parse(doc.Dump(0)));

  EXPECT_EQ(reparsed.At("jobs").AsNumber(), 3.0);
  EXPECT_EQ(reparsed.At("failed_cells").AsNumber(), 1.0);
  const json::Value& c = reparsed.At("campaigns").Items().at(0);
  EXPECT_EQ(c.At("name").AsString(), "test-fast");
  // The document's file name relative to the manifest, not the path given.
  EXPECT_EQ(c.At("json").AsString(), "BENCH_test-fast.json");
  const json::Value& cells = c.At("cells");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells.Items()[0].At("ok").AsBool());
  // Seeds are decimal strings: uint64 does not round-trip through a double.
  EXPECT_EQ(cells.Items()[0].At("seed").AsString(),
            std::to_string(CellSeed("test-fast", "lc", 7)));
  EXPECT_FALSE(cells.Items()[1].At("ok").AsBool());
  EXPECT_EQ(cells.Items()[1].At("id").AsString(), "weird \"label\"\n");
  EXPECT_EQ(cells.Items()[1].At("error").AsString(), "exploded");
}

// --- json primitives ---------------------------------------------------------

TEST(JsonTest, ParsesScalarsAndStructure) {
  const json::Value v = json::Value::Parse(
      R"({"a": [1, 2.5, -3e2], "b": {"t": true, "f": false, "n": null}, "s": "x\ty\n\"z\" A"})");
  EXPECT_EQ(v.At("a").Items().size(), 3u);
  EXPECT_EQ(v.At("a").Items()[0].AsNumber(), 1.0);
  EXPECT_EQ(v.At("a").Items()[2].AsNumber(), -300.0);
  EXPECT_TRUE(v.At("b").At("t").AsBool());
  EXPECT_FALSE(v.At("b").At("f").AsBool());
  EXPECT_TRUE(v.At("b").At("n").is_null());
  EXPECT_EQ(v.At("s").AsString(), "x\ty\n\"z\" A");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::Parse("{"), std::invalid_argument);
  EXPECT_THROW(json::Value::Parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(json::Value::Parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(json::Value::Parse("nul"), std::invalid_argument);
  EXPECT_THROW(json::Value::Parse("\"unterminated"), std::invalid_argument);
}

TEST(JsonTest, RoundTripsDoublesExactly) {
  json::Value arr = json::Value::Array();
  arr.Append(0.1);
  arr.Append(1.0 / 3.0);
  arr.Append(12345.6789e-3);
  arr.Append(1e300);
  const json::Value back = json::Value::Parse(arr.Dump());
  ASSERT_EQ(back.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(arr.Items()[i].AsNumber(), back.Items()[i].AsNumber());
  }
}

// JSON has no NaN/Inf. They dump as null, so an undefined ratio (0/0) can
// never read back as a measured zero.
TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  json::Value arr = json::Value::Array();
  arr.Append(std::numeric_limits<double>::quiet_NaN());
  arr.Append(std::numeric_limits<double>::infinity());
  arr.Append(-std::numeric_limits<double>::infinity());
  arr.Append(0.0);
  EXPECT_EQ(arr.Dump(), "[null, null, null, 0]");
  const json::Value back = json::Value::Parse(arr.Dump(2));
  ASSERT_EQ(back.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(back.Items()[i].is_null()) << i;
  }
  EXPECT_EQ(back.Items()[3].AsNumber(), 0.0);
}

// --- registry ----------------------------------------------------------------

TEST(CampaignRegistryTest, RegistersAndResolves) {
  Campaign campaign;
  campaign.name = "test-registry-entry";
  campaign.title = "registered from campaign_test";
  CampaignRegistry::Instance().Register(campaign);
  const Campaign* found = CampaignRegistry::Instance().Find("test-registry-entry");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->title, "registered from campaign_test");
  EXPECT_EQ(CampaignRegistry::Instance().Find("no-such-campaign"), nullptr);

  const std::vector<std::string> names = CampaignRegistry::Instance().Names();
  bool present = false;
  for (const std::string& name : names) {
    present = present || name == "test-registry-entry";
  }
  EXPECT_TRUE(present);
}

// --- worker pool -------------------------------------------------------------

TEST(WorkerPoolTest, VisitsEveryIndexOnce) {
  for (int jobs : {1, 2, 8}) {
    std::vector<int> hits(100, 0);
    ParallelFor(jobs, hits.size(), [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " i=" << i;
    }
  }
  // Zero items: no calls, no hang.
  ParallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

}  // namespace
}  // namespace tashkent
