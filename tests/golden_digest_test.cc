// Golden-digest determinism check for the hot-path kernel.
//
// The slab event kernel, inline callbacks, and intrusive-LRU buffer pool were
// all introduced under one contract: bit-identical simulated results. This
// test enforces it against a checked-in golden file: the `smoke` campaign's
// BENCH_smoke.json as produced by the PRE-refactor binary (seed 42). The
// current binary must reproduce that document exactly — every tps, response
// time, committed count, and timeline bucket. Host timing is not part of a
// result document; it lives in the campaign manifest (see the schema note in
// src/cluster/sink.h).
//
// Regenerated for the checkpoint/bounded-log PR (new run columns
// log_chunks_hwm / arena_bytes_hwm / join_latency_s and a marathon-smoke
// cell that pins the checkpoint-join + auto-prune paths): every pre-existing
// run's pre-existing fields were diffed byte-identical against the previous
// golden before the swap, proving auto-pruning (on by default) perturbs no
// simulated outcome. The golden now also covers state transfer: the
// marathon-smoke cell kills/recovers a replica and joins a new one under the
// default CheckpointPolicy, so any drift in the install cost model or the
// prune floor shows up as a digest mismatch.
//
// Regenerated again for the fluid-client/skew PR (new run columns
// unevenness / miss_rate / realloc_moves / clients_modeled / fluid): the
// pre-existing fields of every run were diffed byte-identical against the
// previous golden before the swap, proving the skew plumbing (zipf_s 0 by
// default) and the ClientSource virtualization perturb no simulated outcome
// — the diff is pure key insertion.
//
// Regenerated again for the bounded-conflict-index change (new run column
// conflict_rows_hwm, inserted after arena_bytes_hwm): every pre-existing
// field of every run was diffed byte-identical against the previous golden
// before the swap, proving the flat conflict index and its pruning at the
// GSI-safe point change no verdict — the diff is pure key insertion.
//
// A second golden, BENCH_faults.json, pins the `faults` campaign (seed 42).
// Smoke has no fault cell, so without it no byte check would cover how the
// channel's message counts, the certifier's dedup hits, crashes and
// failovers, and the downtime accounting are scoped to a measure window.
//
// If this test fails after an intentional semantic change to the simulation,
// regenerate the golden:
//   ./build/tashkent_bench run smoke --json /tmp/g --no-progress
//   cp /tmp/g/BENCH_smoke.json tests/golden/BENCH_smoke.json
// (likewise `run faults` for BENCH_faults.json) and say so in the PR — a
// silent regeneration defeats the check.
//
// Compiled together with bench/bench_smoke.cc and bench/bench_faults.cc (see
// CMakeLists.txt) so the real registered campaigns run in-process.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/cluster/campaign.h"
#include "src/common/json.h"

#ifndef GOLDEN_DIR
#error "GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace tashkent {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// FNV-1a over the canonical (compact) dump — the digest quoted in logs so a
// mismatch is easy to report across machines.
uint64_t Digest(const json::Value& doc) {
  uint64_t h = 1469598103934665603ull;
  for (char c : doc.Dump(0)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Runs the registered campaign `name` at seed 42 and expects its document to
// equal tests/golden/BENCH_<name>.json.
void ExpectMatchesGolden(const std::string& name) {
  const Campaign* campaign = CampaignRegistry::Instance().Find(name);
  ASSERT_NE(campaign, nullptr) << name << " campaign not registered (link its bench file)";

  CampaignRunOptions options;
  options.jobs = 2;
  options.base_seed = 42;  // the seed the golden was captured with
  options.json_dir = "golden-digest-out";
  options.progress = false;
  const CampaignRunRecord record = RunCampaign(*campaign, options);
  for (const CellRecord& cell : record.cells) {
    ASSERT_TRUE(cell.ok) << cell.id << ": " << cell.error;
  }
  ASSERT_FALSE(record.json_path.empty());

  const std::string golden_file = "BENCH_" + name + ".json";
  const json::Value current = json::Value::Parse(ReadFile(record.json_path));
  const json::Value golden =
      json::Value::Parse(ReadFile(std::string(GOLDEN_DIR) + "/" + golden_file));

  EXPECT_EQ(current, golden)
      << "simulated results diverged from the pre-refactor baseline\n"
      << "  golden digest:  " << Digest(golden) << "\n"
      << "  current digest: " << Digest(current) << "\n"
      << "  current file:   " << record.json_path << "\n"
      << "If the change is intentional, regenerate tests/golden/" << golden_file
      << " (see the header comment) and call it out in the PR.";
}

TEST(GoldenDigest, SmokeCampaignMatchesPreRefactorBaseline) { ExpectMatchesGolden("smoke"); }

TEST(GoldenDigest, FaultsCampaignMatchesBaseline) { ExpectMatchesGolden("faults"); }

// The manifest's per-cell timing rows must cover every cell and carry
// positive event counts — the perf accounting the next PRs track. The result
// document itself carries no host timing.
TEST(GoldenDigest, CellsBlockCarriesEventCounts) {
  const Campaign* smoke = CampaignRegistry::Instance().Find("smoke");
  ASSERT_NE(smoke, nullptr);

  CampaignRunOptions options;
  options.jobs = 1;
  options.base_seed = 42;
  options.json_dir = "golden-digest-out";
  options.progress = false;
  const CampaignRunRecord record = RunCampaign(*smoke, options);

  const json::Value doc = json::Value::Parse(ReadFile(record.json_path));
  EXPECT_EQ(doc.Find("cells"), nullptr) << "BENCH_smoke.json carries host timing";

  const json::Value manifest =
      json::Value::Parse(ReadFile("golden-digest-out/BENCH_campaign.json"));
  ASSERT_EQ(manifest.At("campaigns").Items().size(), 1u);
  const json::Value& cells = manifest.At("campaigns").Items()[0].At("cells");
  ASSERT_EQ(cells.Items().size(), record.cells.size());
  for (const json::Value& cell : cells.Items()) {
    EXPECT_TRUE(cell.At("ok").AsBool());
    EXPECT_GT(cell.At("executed_events").AsNumber(), 0.0)
        << cell.At("id").AsString() << " reported no executed events";
  }
}

}  // namespace
}  // namespace tashkent
