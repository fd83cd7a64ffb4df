// Campaign "perf" — hot-path throughput: old-vs-new event kernel, buffer pool
// and update filter, plus representative end-to-end cells.
//
// Each old-vs-new pair runs in the same invocation, on the same host, so its
// speedup needs no normalisation across hosts; scripts/ci.sh gates all three
// speedups with fixed floors.
//   * event-kernel microbench: an identical self-rescheduling event storm
//     (with decoy scheduling + cancellation traffic) run on the pre-refactor
//     LegacySimulator and the slab Simulator; reports events/sec for both and
//     the speedup. Order-sensitive checksums from the two kernels must match,
//     proving the slab kernel replays the exact same execution.
//   * buffer-pool microbench: an identical scan/random/dirty touch mix run on
//     the pre-refactor LegacyBufferPool and the intrusive-LRU BufferPool;
//     reports touches/sec for both, the speedup, and matching checksums.
//   * filter storm: 200k certified writesets against 15 narrow subscribers,
//     once through the interest-mask fast path and once through the frozen
//     TouchesAny baseline; reports both walls, the speedup, and matching
//     checksums of every filtering decision.
//   * representative cells: one TPC-W and one RUBiS MALB-SC cell through the
//     full stack, plus two hot-code-coverage cells: a churn-heavy cell (crash
//     + recovery replay, which exercises failover rejection, the recovery
//     pull chase, and the serial apply queue) and an update-filtering cell
//     (the subscription test on every applied writeset). The manifest's
//     `cells` block records their host wall time and events/sec, and their
//     executed-event counts are checked against the committed baseline.
//     (Event Cancel's product callers are the proxy, which cancels a retry
//     timeout when its response arrives, and FluidClientPool, which cancels
//     its next arrival when it reschedules. None of these cells arms retry
//     or fluid clients, so the kernel storm's decoy cancellation traffic
//     above is Cancel's hot-path coverage here.)
//
// Unlike every other campaign, the throughput scalars here are HOST
// wall-clock derived and therefore not byte-stable across runs or machines;
// the checksums and every cell's executed events are deterministic.
// docs/REPRODUCING.md carries the deviation note, and the golden-digest
// determinism test deliberately excludes this campaign.
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/legacy_baseline.h"
#include "src/certifier/certifier.h"
#include "src/proxy/proxy.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"
#include "src/storage/schema.h"
#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  // lint: allow(wall-clock) throughput timing; scalars are documented as host-dependent
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// --- event-kernel storm ------------------------------------------------------

// Drives `actors` self-rescheduling chains until `target` ticks have fired,
// with a side stream of decoy events of which every other one is cancelled —
// the schedule/fire/cancel mix the cluster generates. The same seed produces
// the same operation sequence on either kernel; `checksum` folds in the clock
// at every tick so any divergence in event ordering is caught.
template <typename Sim>
struct StormDriver {
  Sim sim;
  Rng rng;
  uint64_t ticks = 0;
  uint64_t target;
  uint64_t checksum = 0;
  std::vector<uint64_t> cancel_ring;
  size_t ring_pos = 0;

  StormDriver(uint64_t seed, uint64_t target_ticks)
      : rng(seed), target(target_ticks), cancel_ring(64, Sim::kInvalidEvent) {}

  void Tick(int actor) {
    ++ticks;
    checksum = checksum * 1099511628211ull +
               static_cast<uint64_t>(sim.Now()) + static_cast<uint64_t>(actor);
    if (ticks >= target) {
      return;  // chain ends; pending decoys drain through RunAll
    }
    sim.ScheduleAfter(static_cast<SimDuration>(rng.NextBelow(1000) + 1),
                      [this, actor]() { Tick(actor); });
    if ((ticks & 3) == 0) {
      // Schedule a decoy and cancel the one it displaces from the ring, so a
      // quarter of events carry O(1)-cancel traffic and the heap accumulates
      // lazily-cancelled entries.
      const uint64_t id = sim.ScheduleAfter(
          static_cast<SimDuration>(rng.NextBelow(5000) + 500),
          [this]() { checksum ^= 0x9e3779b97f4a7c15ull; });
      const uint64_t displaced = cancel_ring[ring_pos];
      cancel_ring[ring_pos] = id;
      ring_pos = (ring_pos + 1) % cancel_ring.size();
      if (displaced != Sim::kInvalidEvent) {
        sim.Cancel(displaced);
      }
    }
  }
};

struct StormOutcome {
  double events_per_s = 0.0;
  double wall_s = 0.0;
  uint64_t executed = 0;
  uint64_t checksum = 0;
};

template <typename Sim>
StormOutcome RunStorm(uint64_t seed, int actors, uint64_t target_ticks) {
  StormDriver<Sim> driver(seed, target_ticks);
  for (int a = 0; a < actors; ++a) {
    driver.sim.ScheduleAt(static_cast<SimTime>(a + 1), [d = &driver, a]() { d->Tick(a); });
  }
  // lint: allow(wall-clock) throughput timing; scalars are documented as host-dependent
  const auto start = std::chrono::steady_clock::now();
  driver.sim.RunAll();
  StormOutcome out;
  out.wall_s = SecondsSince(start);
  out.executed = driver.sim.executed_events();
  out.events_per_s = out.wall_s > 0 ? static_cast<double>(out.executed) / out.wall_s : 0.0;
  out.checksum = driver.checksum;
  return out;
}

// --- buffer-pool storm -------------------------------------------------------

// Synthetic 3-relation schema: a big table, a mid table, an index-sized one.
std::vector<RelationMeta> PoolRelations() {
  std::vector<RelationMeta> rels(3);
  rels[0].id = 1;
  rels[0].pages = 120000;  // ~0.9 GB table
  rels[1].id = 2;
  rels[1].pages = 24000;   // ~190 MB table
  rels[2].id = 3;
  rels[2].pages = 4000;    // ~31 MB index
  return rels;
}

struct PoolOutcome {
  double touches_per_s = 0.0;
  double wall_s = 0.0;
  uint64_t touches = 0;
  uint64_t checksum = 0;
};

// The touch mix one replica generates: mostly random point reads, a quarter
// writes, a slice of windowed scans, periodic flush draining.
template <typename Pool>
PoolOutcome RunPoolStorm(Pool& pool, uint64_t seed, int iters) {
  const std::vector<RelationMeta> rels = PoolRelations();
  const AccessSkew skew;
  Rng rng(seed);
  PoolOutcome out;
  // lint: allow(wall-clock) throughput timing; scalars are documented as host-dependent
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    const RelationMeta& rel = rels[rng.NextBelow(rels.size())];
    const uint64_t op = rng.NextBelow(100);
    if (op < 55) {
      const PoolAccess a = pool.TouchRandom(rel, 4, rng, skew);
      out.touches += 4;
      out.checksum = out.checksum * 31 + static_cast<uint64_t>(a.pages_hit);
    } else if (op < 80) {
      pool.DirtyRandom(rel, 2, rng, skew);
      out.touches += 2;
    } else {
      const PoolAccess a = pool.TouchScanWindow(rel, 256, rng, skew);
      out.touches += 256;
      out.checksum = out.checksum * 31 + static_cast<uint64_t>(a.pages_missed);
    }
    if ((i & 255) == 0) {
      out.checksum += static_cast<uint64_t>(pool.TakeDirtyForFlush(512));
    }
  }
  out.wall_s = SecondsSince(start);
  out.touches_per_s = out.wall_s > 0 ? static_cast<double>(out.touches) / out.wall_s : 0.0;
  return out;
}

// --- filter storm ------------------------------------------------------------

// Many replicas × narrow subscriptions × a high off-subscription update rate:
// the wanted-probe hot path in isolation. One writer certifies bursts of
// writesets touching a "hot" table pool no subscriber wants; 15 subscribers
// each hold a narrow slice of a disjoint "cold" pool, so nearly every probe
// filters. Every kFilterColdEvery-th writeset also touches one cold table, so
// chunks are occasionally mixed and real applies happen. One subscriber
// crashes early and recovers after the last burst, routing a ~200k-version
// replay through the apply pump in recovery mode — the chunk skip-scan's
// headline case. Run once with the mask fast path and once with mask_filtering=false
// (the frozen TouchesAny baseline); filtering decisions, event counts, and
// the stats checksum must be identical — only wall time may differ.
constexpr int kFilterReplicas = 16;    // replica 0 writes; 1..15 subscribe
constexpr int kFilterHotTables = 48;   // update-stream pool (unsubscribed)
constexpr int kFilterColdTables = 32;  // subscription pool
constexpr int kFilterSubWidth = 16;    // tables per subscription
constexpr int kFilterBatches = 200;    // one certify burst per simulated ms
constexpr int kFilterPerBatch = 1000;  // writesets per burst
constexpr int kFilterColdEvery = 997;  // every nth writeset hits a cold table

struct FilterStormOutcome {
  double wall_s = 0.0;
  uint64_t executed = 0;
  uint64_t checksum = 0;
  uint64_t mask_skipped = 0;
  uint64_t filtered = 0;
};

FilterStormOutcome RunFilterStorm(bool mask_filtering) {
  Simulator sim;
  Schema schema;
  std::vector<RelationId> tables;
  for (int t = 0; t < kFilterHotTables + kFilterColdTables; ++t) {
    tables.push_back(schema.AddTable("t" + std::to_string(t), MiB(4)));
  }
  Certifier cert;
  ReplicaConfig rc;
  rc.memory = 64 * kMiB;
  rc.reserved = 0;
  ProxyConfig pc;
  pc.mask_filtering = mask_filtering;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<Proxy>> proxies;
  for (ReplicaId r = 0; r < kFilterReplicas; ++r) {
    replicas.push_back(std::make_unique<Replica>(&sim, &schema, r, rc, Rng(r + 1)));
    proxies.push_back(std::make_unique<Proxy>(&sim, replicas.back().get(), &cert, pc));
  }
  cert.SetProdCallback([&proxies](ReplicaId r) { proxies[r]->OnProd(); });
  for (int r = 1; r < kFilterReplicas; ++r) {
    RelationSet sub;
    for (int j = 0; j < kFilterSubWidth; ++j) {
      sub.insert(tables[static_cast<size_t>(
          kFilterHotTables + ((r - 1) * 2 + j) % kFilterColdTables)]);
    }
    proxies[static_cast<size_t>(r)]->SetSubscription(std::move(sub));
    // Bootstrap prod: the first pull registers the replica with the
    // certifier so real prods reach it from then on (no periodic daemons in
    // the storm — every subsequent pull is prod-driven).
    proxies[static_cast<size_t>(r)]->OnProd();
  }
  // One subscriber rides a crash/recover arc so the batched recovery replay
  // is part of the measured storm.
  sim.ScheduleAt(Millis(5), [&proxies]() { proxies[kFilterReplicas - 1]->Crash(); });
  sim.ScheduleAt(Millis(kFilterBatches + 5),
                 [&proxies]() { proxies[kFilterReplicas - 1]->Recover(); });

  uint64_t produced = 0;
  for (int b = 0; b < kFilterBatches; ++b) {
    sim.ScheduleAt(Millis(b + 1), [&cert, &tables, &produced]() {
      for (int i = 0; i < kFilterPerBatch; ++i) {
        Writeset ws;
        ws.origin = 0;
        ws.type = 0;
        ws.bytes = 275;
        ws.snapshot_version = cert.head_version();
        // Rows never repeat, so certification always commits; 4 hot tables
        // per writeset keep the TouchesAny baseline honest (4 binary
        // searches over a 16-table subscription per probe).
        ws.items.push_back(WritesetItem{tables[produced % kFilterHotTables], produced});
        for (uint64_t k = 0; k < 4; ++k) {
          ws.table_pages.push_back(
              TableWrite{tables[(produced * 4 + k) % kFilterHotTables], 1});
        }
        if (produced % kFilterColdEvery == 0) {
          ws.table_pages.push_back(TableWrite{
              tables[kFilterHotTables +
                     (produced / kFilterColdEvery) % kFilterColdTables],
              1});
        }
        ++produced;
        cert.Certify(std::move(ws), 0, cert.head_version());
      }
    });
  }

  FilterStormOutcome out;
  // lint: allow(wall-clock) throughput timing; scalars are documented as host-dependent
  const auto start = std::chrono::steady_clock::now();
  sim.RunAll();
  out.wall_s = SecondsSince(start);
  out.executed = sim.executed_events();
  for (const auto& proxy : proxies) {
    const ProxyStats& st = proxy->stats();
    // Everything filtering DECIDES folds into the checksum; mask_skipped is
    // deliberately excluded (it measures how the decision was reached).
    for (uint64_t v :
         {proxy->applied_version(), st.writesets_applied, st.writesets_filtered,
          st.replay_applied, st.replay_filtered, st.pulls, st.prods, st.recoveries}) {
      out.checksum = out.checksum * 1099511628211ull + v;
    }
    out.mask_skipped += st.mask_skipped;
    out.filtered += st.writesets_filtered;
  }
  return out;
}

CellOutput FilterStormOutput(const FilterStormOutcome& o) {
  CellOutput out;
  out.scalars.emplace_back("wall_s", o.wall_s);
  out.scalars.emplace_back("writesets_filtered", static_cast<double>(o.filtered));
  out.scalars.emplace_back("mask_skipped", static_cast<double>(o.mask_skipped));
  out.scalars.emplace_back("checksum", static_cast<double>(o.checksum % (1ull << 52)));
  out.executed_events = o.executed;
  return out;
}

// --- cells -------------------------------------------------------------------

// Storm sizes: big enough to dominate setup cost, small enough for CI.
constexpr uint64_t kStormSeed = 0x7a5b9d31;
constexpr int kStormActors = 64;
constexpr uint64_t kStormTicks = 2'000'000;
constexpr int kPoolIters = 400'000;
constexpr Bytes kPoolBytes = 256 * kMiB;

CellOutput KernelOutput(const StormOutcome& s) {
  CellOutput out;
  out.scalars.emplace_back("events_per_s", s.events_per_s);
  out.scalars.emplace_back("wall_s", s.wall_s);
  out.scalars.emplace_back("executed_events", static_cast<double>(s.executed));
  out.scalars.emplace_back("checksum", static_cast<double>(s.checksum % (1ull << 52)));
  out.executed_events = s.executed;
  return out;
}

CellOutput PoolOutput(const PoolOutcome& p) {
  CellOutput out;
  out.scalars.emplace_back("touches_per_s", p.touches_per_s);
  out.scalars.emplace_back("wall_s", p.wall_s);
  out.scalars.emplace_back("touches", static_cast<double>(p.touches));
  out.scalars.emplace_back("checksum", static_cast<double>(p.checksum % (1ull << 52)));
  return out;
}

Workload Tpcw() { return BuildTpcw(kTpcwSmallEbs); }
Workload Rubis() { return BuildRubis(); }

// Standard knobs for the representative cells: small enough for CI, big
// enough that the simulation dominates setup.
bench::CellOptions PerfCellOptions(bool filtering = false) {
  bench::CellOptions opts;
  opts.ram = 256 * kMiB;
  opts.replicas = 4;
  opts.filtering = filtering;
  opts.clients = 4;  // fixed population: no calibration sweep in a perf cell
  opts.warmup = Seconds(30.0);
  opts.measure = Seconds(120.0);
  return opts;
}

CampaignCell PerfPolicyCell(std::string id, bench::WorkloadFactory wf, std::string mix,
                            bool filtering = false) {
  return bench::PolicyCell(std::move(id), std::move(wf), std::move(mix), "MALB-SC",
                           PerfCellOptions(filtering));
}

// Churn-heavy representative cell: a replica crashes one minute into the
// window and recovers two minutes later. The failover bounces racing
// submissions to other replicas and the recovery replays the certifier log
// through the serial apply queue — rejection, replay, and apply-pump code
// paths that steady-state cells barely touch.
CampaignCell PerfChurnCell(std::string id, bench::WorkloadFactory wf, std::string mix) {
  ScenarioBuilder script = ScenarioBuilder()
                               .Warmup(Seconds(30.0))
                               .At(Seconds(60.0), KillReplica{1})
                               .At(Seconds(180.0), RecoverReplica{1})
                               .Measure(Seconds(300.0), "measure");
  return bench::ScenarioCell(std::move(id), std::move(wf), std::move(mix), "MALB-SC",
                             std::move(script), PerfCellOptions());
}

std::vector<CampaignCell> Cells() {
  std::vector<CampaignCell> cells;
  {
    CampaignCell c;
    c.id = "kernel/legacy";
    c.run = [](uint64_t) {
      return KernelOutput(RunStorm<legacy::LegacySimulator>(kStormSeed, kStormActors, kStormTicks));
    };
    cells.push_back(std::move(c));
  }
  {
    CampaignCell c;
    c.id = "kernel/slab";
    c.run = [](uint64_t) {
      return KernelOutput(RunStorm<Simulator>(kStormSeed, kStormActors, kStormTicks));
    };
    cells.push_back(std::move(c));
  }
  {
    CampaignCell c;
    c.id = "pool/legacy";
    c.run = [](uint64_t) {
      legacy::LegacyBufferPool pool(kPoolBytes);
      return PoolOutput(RunPoolStorm(pool, kStormSeed, kPoolIters));
    };
    cells.push_back(std::move(c));
  }
  {
    CampaignCell c;
    c.id = "pool/slab";
    c.run = [](uint64_t) {
      BufferPool pool(kPoolBytes);
      return PoolOutput(RunPoolStorm(pool, kStormSeed, kPoolIters));
    };
    cells.push_back(std::move(c));
  }
  cells.push_back(PerfPolicyCell("cell/tpcw", Tpcw, kTpcwOrdering));
  cells.push_back(PerfPolicyCell("cell/rubis", Rubis, kRubisBidding));
  cells.push_back(PerfChurnCell("cell/churn", Tpcw, kTpcwOrdering));
  cells.push_back(PerfPolicyCell("cell/filter", Tpcw, kTpcwOrdering, /*filtering=*/true));
  {
    CampaignCell c;
    c.id = "cell/filter-storm";
    c.run = [](uint64_t) { return FilterStormOutput(RunFilterStorm(/*mask_filtering=*/true)); };
    cells.push_back(std::move(c));
  }
  {
    CampaignCell c;
    c.id = "cell/filter-storm-legacy";
    c.run = [](uint64_t) { return FilterStormOutput(RunFilterStorm(/*mask_filtering=*/false)); };
    cells.push_back(std::move(c));
  }
  return cells;
}

double Scalar(const CellOutput& cell, const std::string& key) {
  for (const auto& [k, v] : cell.scalars) {
    if (k == key) {
      return v;
    }
  }
  // A misspelt key must fail the report, not compare 0 with 0.
  throw std::runtime_error("perf report: cell has no scalar '" + key + "'");
}

void Report(const CampaignOutputs& r, ResultSink& out) {
  const CellOutput& kl = r.Get("kernel/legacy");
  const CellOutput& ks = r.Get("kernel/slab");
  const CellOutput& pl = r.Get("pool/legacy");
  const CellOutput& ps = r.Get("pool/slab");

  out.Begin("Perf: hot-path throughput, old vs new",
            "event storm 2M ticks / 64 actors; pool storm 400k ops / 256MB; "
            "representative 4-replica cells (steady, churn, filtering); "
            "filter storm 200k writesets x 15 narrow subscriptions, mask vs TouchesAny");

  const double kernel_legacy = Scalar(kl, "events_per_s");
  const double kernel_slab = Scalar(ks, "events_per_s");
  out.AddScalar("kernel legacy events_per_s", kernel_legacy);
  out.AddScalar("kernel slab events_per_s", kernel_slab);
  out.AddScalar("kernel speedup (slab / legacy)",
                kernel_legacy > 0 ? kernel_slab / kernel_legacy : 0.0);
  if (Scalar(kl, "checksum") != Scalar(ks, "checksum")) {
    // Throwing fails the cell (campaign.cc records report_error and bumps
    // failed_cells), which fails the tashkent_bench exit code — the CI gate
    // is this exception, not a grep over the report text.
    throw std::runtime_error(
        "kernel checksums diverge — slab kernel is NOT replaying the legacy "
        "execution; speedup number is not comparable");
  } else {
    out.Note("kernel checksums match: slab kernel replays the legacy execution exactly");
  }

  const double pool_legacy = Scalar(pl, "touches_per_s");
  const double pool_slab = Scalar(ps, "touches_per_s");
  out.AddScalar("pool legacy touches_per_s", pool_legacy);
  out.AddScalar("pool slab touches_per_s", pool_slab);
  out.AddScalar("pool speedup (slab / legacy)",
                pool_legacy > 0 ? pool_slab / pool_legacy : 0.0);
  if (Scalar(pl, "checksum") != Scalar(ps, "checksum")) {
    throw std::runtime_error(
        "pool checksums diverge — intrusive LRU is NOT hit/miss identical to "
        "the legacy pool; speedup number is not comparable");
  } else {
    out.Note("pool checksums match: intrusive LRU is hit/miss identical to the legacy pool");
  }

  // The churn cell's recovery must actually have happened, or it is not
  // exercising the Cancel/replay paths it exists for.
  if (r.Get("cell/churn").Result().recoveries == 0) {
    throw std::runtime_error(
        "cell/churn completed no recovery — the churn cell is not exercising "
        "the replay path");
  }

  // Filter storm: the mask fast path against the frozen TouchesAny baseline.
  // The checksum folds every filtering DECISION (applied/filtered counts,
  // applied versions, pulls, prods, recoveries), so a divergence means the
  // mask path changed what was filtered, not just how fast.
  const CellOutput& fm = r.Get("cell/filter-storm");
  const CellOutput& fl = r.Get("cell/filter-storm-legacy");
  const double storm_mask_wall = Scalar(fm, "wall_s");
  const double storm_legacy_wall = Scalar(fl, "wall_s");
  out.AddScalar("filter-storm mask wall_s", storm_mask_wall);
  out.AddScalar("filter-storm legacy wall_s", storm_legacy_wall);
  out.AddScalar("filter-storm speedup (mask / touchesany)",
                storm_mask_wall > 0 ? storm_legacy_wall / storm_mask_wall : 0.0);
  out.AddScalar("filter-storm mask_skipped", Scalar(fm, "mask_skipped"));
  if (Scalar(fm, "checksum") != Scalar(fl, "checksum")) {
    throw std::runtime_error(
        "filter-storm checksums diverge — the mask fast path is NOT making "
        "the same filtering decisions as TouchesAny");
  }
  if (Scalar(fm, "mask_skipped") <= 0) {
    throw std::runtime_error(
        "filter-storm mask cell skipped no chunks — the chunk skip-scan "
        "never engaged; the cell is not exercising what it exists for");
  }
  if (Scalar(fl, "mask_skipped") != 0) {
    throw std::runtime_error(
        "filter-storm legacy cell used the mask path — the frozen TouchesAny "
        "baseline is not frozen");
  }
  out.Note("filter-storm checksums match: mask-wanted ≡ TouchesAny-wanted "
           "across 200k versions × 15 subscriptions + one batched recovery replay");
  out.Note("host-timing campaign: throughput scalars vary per machine/run; checksums "
           "and executed events are deterministic (excluded from golden-digest checks)");
}

RegisterCampaign perf{{"perf", "", "Perf: hot-path throughput, old vs new",
                       "event storm 2M ticks / 64 actors; pool storm 400k ops / 256MB; "
                       "representative 4-replica cells (steady, churn, filtering); "
                       "filter storm 200k writesets x 15 narrow subscriptions, mask vs TouchesAny",
                       Cells, Report}};

}  // namespace
}  // namespace tashkent
