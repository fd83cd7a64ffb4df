// The console renderer of ResultSink, and a few cross-cutting behaviours that
// the module suites do not cover.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/cluster/sink.h"
#include "src/core/working_set.h"
#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

// PrintConsole walks the recorded events in call order: every Begin prints
// its own header, a Note between two runs stays between them, and runs print
// their disk I/O and churn rows only when they carry those numbers.
TEST(Report, ConsolePrintsEventsInCallOrder) {
  ResultSink sink;
  sink.Begin("Figure 1: first", "setup one");
  RunRecord alpha;
  alpha.label = "alpha";
  alpha.paper_tps = 76.0;
  alpha.result.tps = 75.5;
  alpha.result.mean_response_s = 0.25;
  alpha.result.rejected = 3;
  alpha.result.availability = 0.875;
  alpha.result.recovery_lag_s = 12.5;
  alpha.result.replay_applied = 40;
  alpha.result.replay_filtered = 60;
  sink.AddRun(alpha);
  sink.Note("between runs");
  RunRecord beta;
  beta.label = "beta";
  beta.paper_write_kb = 12.0;
  beta.paper_read_kb = 72.0;
  beta.result.tps = 120.0;
  beta.result.mean_response_s = 1.5;
  beta.result.write_kb_per_txn = 11.0;
  beta.result.read_kb_per_txn = 70.2;
  beta.result.recoveries = 1;
  beta.result.recovery_lag_s = 30.0;
  beta.result.replay_applied = 5;
  sink.AddRun(beta);
  sink.Begin("Figure 2: second", "");
  sink.AddRatio("beta / alpha", 2.0, 1.59);
  sink.AddScalar("groups", 3.0);
  GroupReport g;
  g.types = {"A", "B"};
  g.replicas = 3;
  sink.AddGroups("packing", {g});
  sink.AddTimeline("timeline", {300.0, 0.0, 0.0, 0.0, 750.0});  // kTimelineBucket = 30 s

  testing::internal::CaptureStdout();
  PrintConsole(sink);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "\n"
            "== Figure 1: first ==\n"
            "   setup one\n"
            "method                         paper(tps)     measured      resp(s)\n"
            "alpha                                76.0         75.5         0.25\n"
            "alpha                         avail  87.50%   recovery lag   12.5 s   "
            "replay 40 applied / 60 filtered\n"
            "between runs\n"
            "beta                                  0.0        120.0         1.50\n"
            "beta                          paper(W/R)  12.0/  72.0 KB   measured  11.0/  70.2 KB\n"
            "beta                          avail 100.00%   recovery lag   30.0 s   "
            "replay 5 applied / 0 filtered\n"
            "\n"
            "== Figure 2: second ==\n"
            "method                         paper(tps)     measured      resp(s)\n"
            "   ratio beta / alpha                         paper  2.00x   measured  1.59x\n"
            "   groups                                         3.00\n"
            "\n"
            "packing:\n"
            "transaction group                                                      replicas\n"
            "[A, B]                                                                        3\n"
            "\n"
            "timeline (30 s buckets, tps):\n"
            "  t=    0s    10.0 tps\n"
            "  t=  120s    25.0 tps\n");
  // The first header names the document; the second is a console section.
  const json::Value doc = ToJson(sink);
  EXPECT_EQ(doc.At("bench").AsString(), "Figure 1: first");
  EXPECT_EQ(doc.At("setup").AsString(), "setup one");
}

// The document keys scalars by name, so a second value for a key would
// replace the first without a trace; the sink refuses it instead.
TEST(Report, DuplicateScalarKeyThrowsNamingIt) {
  ResultSink sink;
  sink.AddScalar("MALB speedup x16", 12.0);
  sink.AddScalar("LC speedup x16", 8.0);
  try {
    sink.AddScalar("MALB speedup x16", 13.0);
    FAIL() << "a duplicate scalar key was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("'MALB speedup x16'"), std::string::npos) << e.what();
  }
  const json::Value scalars = ToJson(sink).At("scalars");
  EXPECT_EQ(scalars.Members().size(), 2u);
  EXPECT_EQ(scalars.At("MALB speedup x16").AsNumber(), 12.0);
}

TEST(WorkingSets, EstimationMethodNames) {
  EXPECT_STREQ(EstimationMethodName(EstimationMethod::kSize), "MALB-S");
  EXPECT_STREQ(EstimationMethodName(EstimationMethod::kSizeContent), "MALB-SC");
  EXPECT_STREQ(EstimationMethodName(EstimationMethod::kSizeContentAccess), "MALB-SCAP");
}

TEST(WorkingSets, ScapAlwaysLowerOrEqualToSc) {
  for (const Workload& w : {BuildTpcw(kTpcwMediumEbs), BuildRubis()}) {
    for (const auto& ws : BuildWorkingSets(w.registry, w.schema)) {
      EXPECT_LE(ws.ScannedPages(), ws.ReferencedPages()) << ws.name;
      EXPECT_LE(ws.EstimatePages(EstimationMethod::kSizeContentAccess) -
                    ws.random_pages_per_exec,
                ws.EstimatePages(EstimationMethod::kSizeContent))
          << ws.name;
    }
  }
}

TEST(WorkingSets, EveryTypeReferencesSomething) {
  for (const Workload& w : {BuildTpcw(kTpcwMediumEbs), BuildRubis()}) {
    for (const auto& ws : BuildWorkingSets(w.registry, w.schema)) {
      EXPECT_FALSE(ws.relations.empty()) << ws.name;
      EXPECT_GT(ws.ReferencedPages(), 0) << ws.name;
    }
  }
}

TEST(WorkingSets, EstimatesTrackCatalogGrowth) {
  Workload w = BuildTpcw(kTpcwMediumEbs);
  const TxnTypeId bs = w.registry.Find("BestSeller");
  const auto before = BuildWorkingSet(w.registry.Get(bs), w.schema);
  // order_line doubles (the database grew); the estimate must follow.
  const RelationId ol = w.schema.Find("order_line");
  w.schema.GetMutable(ol).pages *= 2;
  const auto after = BuildWorkingSet(w.registry.Get(bs), w.schema);
  EXPECT_GT(after.ReferencedPages(), before.ReferencedPages());
}

TEST(Determinism, PackingStableAcrossRebuilds) {
  // Rebuilding the same workload gives identical packings (no hidden
  // iteration-order dependence on hash maps).
  const Workload a = BuildTpcw(kTpcwMediumEbs);
  const Workload b = BuildTpcw(kTpcwMediumEbs);
  const auto pa = PackTransactionGroups(BuildWorkingSets(a.registry, a.schema),
                                        BytesToPages(442 * kMiB), EstimationMethod::kSizeContent);
  const auto pb = PackTransactionGroups(BuildWorkingSets(b.registry, b.schema),
                                        BytesToPages(442 * kMiB), EstimationMethod::kSizeContent);
  ASSERT_EQ(pa.groups.size(), pb.groups.size());
  for (size_t g = 0; g < pa.groups.size(); ++g) {
    EXPECT_EQ(pa.groups[g].types, pb.groups[g].types);
    EXPECT_EQ(pa.groups[g].estimate_pages, pb.groups[g].estimate_pages);
  }
}

}  // namespace
}  // namespace tashkent
