// Golden-digest determinism check for the hot-path kernel.
//
// The slab event kernel, inline callbacks, and intrusive-LRU buffer pool were
// all introduced under one contract: bit-identical simulated results. This
// test enforces it against a checked-in golden file: the `smoke` campaign's
// BENCH_smoke.json as produced by the PRE-refactor binary (seed 42). The
// current binary must reproduce that document exactly — every tps, response
// time, committed count, and timeline bucket — modulo the "cells" key, which
// is host-side timing metadata added after the golden was captured (see the
// schema note in src/cluster/sink.h).
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
// If this test fails after an intentional semantic change to the simulation,
// regenerate the golden:
//   ./build/tashkent_bench run smoke --json /tmp/g --no-progress
//   cp /tmp/g/BENCH_smoke.json tests/golden/BENCH_smoke.json
// and say so in the PR — a silent regeneration defeats the check.
//
// Compiled together with bench/bench_smoke.cc (see CMakeLists.txt) so the
// real registered campaign runs in-process.
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

// Copies the document minus the host-timing "cells" block (the one
// deliberately nondeterministic key; everything else must match the golden).
json::Value StripHostTiming(const json::Value& doc) {
  json::Value out = json::Value::Object();
  for (const auto& [key, value] : doc.Members()) {
    if (key != "cells") {
      out.Set(key, value);
    }
  }
  return out;
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

TEST(GoldenDigest, SmokeCampaignMatchesPreRefactorBaseline) {
  const Campaign* smoke = CampaignRegistry::Instance().Find("smoke");
  ASSERT_NE(smoke, nullptr) << "smoke campaign not registered (link bench_smoke.cc)";

  CampaignRunOptions options;
  options.jobs = 2;
  options.base_seed = 42;  // the seed the golden was captured with
  options.json_dir = "golden-digest-out";
  options.progress = false;
  const CampaignRunRecord record = RunCampaign(*smoke, options);
  for (const CellRecord& cell : record.cells) {
    ASSERT_TRUE(cell.ok) << cell.id << ": " << cell.error;
  }
  ASSERT_FALSE(record.json_path.empty());

  const json::Value current =
      StripHostTiming(json::Value::Parse(ReadFile(record.json_path)));
  const json::Value golden =
      StripHostTiming(json::Value::Parse(ReadFile(std::string(GOLDEN_DIR) + "/BENCH_smoke.json")));

  EXPECT_EQ(current, golden)
      << "simulated results diverged from the pre-refactor baseline\n"
      << "  golden digest:  " << Digest(golden) << "\n"
      << "  current digest: " << Digest(current) << "\n"
      << "  current file:   " << record.json_path << "\n"
      << "If the change is intentional, regenerate tests/golden/BENCH_smoke.json "
      << "(see the header comment) and call it out in the PR.";
}

// The per-cell timing block must exist, cover every cell, and carry positive
// event counts — the manifest-side perf accounting the next PRs track.
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
  const json::Value* cells = doc.Find("cells");
  ASSERT_NE(cells, nullptr) << "BENCH_smoke.json lacks the cells timing block";
  ASSERT_EQ(cells->Items().size(), record.cells.size());
  for (const json::Value& cell : cells->Items()) {
    EXPECT_TRUE(cell.At("ok").AsBool());
    EXPECT_GT(cell.At("executed_events").AsNumber(), 0.0)
        << cell.At("id").AsString() << " reported no executed events";
  }
}

}  // namespace
}  // namespace tashkent
