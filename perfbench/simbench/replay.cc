#include "simbench/replay.h"

#include <algorithm>
#include <chrono>

#include "simbench/rep.h"
#include "src/certifier/certifier.h"
#include "src/common/rng.h"
#include "src/replica/replica.h"
#include "src/sim/simulator.h"
#include "src/storage/buffer_pool.h"

namespace perfbench {

using tashkent::Rng;

namespace {

// Self-rescheduling event chain: each firing schedules its successor with a
// uniform delay of mean `depth` us, so `depth` events stay pending and about
// one event fires per simulated microsecond.
struct KernelChain {
  tashkent::Simulator sim;
  Rng rng;
  uint64_t span;

  KernelChain(uint64_t seed, size_t depth) : rng(seed), span(2 * std::max<size_t>(depth, 1)) {}

  void Fire() {
    sim.ScheduleAfter(static_cast<tashkent::SimDuration>(rng.NextBelow(span) + 1),
                      [this]() { Fire(); });
  }
};

}  // namespace

KernelReplay ReplayKernel(size_t depth, uint64_t seed) {
  constexpr tashkent::SimDuration kWarm = 200'000;
  constexpr tashkent::SimDuration kTimed = 4'000'000;
  KernelChain chain(seed, depth);
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    chain.sim.ScheduleAt(static_cast<tashkent::SimTime>(chain.rng.NextBelow(chain.span) + 1),
                         [c = &chain]() { c->Fire(); });
  }
  chain.sim.RunUntil(kWarm);
  const uint64_t before = chain.sim.executed_events();
  const Clock::time_point start = Clock::now();
  chain.sim.RunUntil(kWarm + kTimed);
  const double elapsed = SecondsSince(start);
  KernelReplay out;
  out.events = chain.sim.executed_events() - before;
  out.ns_per_event = out.events > 0 ? 1e9 * elapsed / static_cast<double>(out.events) : 0.0;
  return out;
}

PoolReplay ReplayPool(const Script& script, double applies_per_txn, uint64_t seed,
                      double budget_s) {
  const tashkent::Workload workload = script.build();
  const tashkent::Mix& mix = workload.MixByName(script.mix);
  tashkent::ReplicaConfig rc;
  rc.memory = script.ram;
  const tashkent::AccessSkew skew = workload.skew ? *workload.skew : rc.skew;
  tashkent::BufferPool pool(rc.memory - rc.reserved, rc.chunk_pages);
  Rng rng(seed);

  std::vector<tashkent::TxnTypeId> update_types;
  for (const tashkent::TxnType& t : workload.registry.types()) {
    if (t.is_update() && t.id < mix.weights().size() && mix.weights()[t.id] > 0.0) {
      update_types.push_back(t.id);
    }
  }
  double apply_credit = 0.0;

  // One transaction as Replica::Execute touches the pool, then its share of
  // remote applies (Replica::StageApply) and write-back (FlushRound).
  const auto one_txn = [&]() {
    const tashkent::TxnType& type = workload.registry.Get(mix.Sample(rng));
    for (const tashkent::PlanStep& step : type.plan.steps) {
      const tashkent::RelationMeta& rel = workload.schema.Get(step.relation);
      if (step.access == tashkent::AccessKind::kSequentialScan) {
        const tashkent::Pages window =
            step.window_pages > 0 ? std::min(step.window_pages, rel.pages) : rel.pages;
        pool.TouchScanWindow(rel, window, rng, skew);
      } else {
        pool.TouchRandom(rel, step.pages_per_exec, rng, skew);
      }
      if (step.write_pages > 0) {
        pool.DirtyRandom(rel, step.write_pages, rng, rc.write_skew);
      }
    }
    apply_credit += applies_per_txn;
    while (apply_credit >= 1.0 && !update_types.empty()) {
      apply_credit -= 1.0;
      const tashkent::TxnType& remote =
          workload.registry.Get(update_types[rng.NextBelow(update_types.size())]);
      for (const tashkent::PlanStep& step : remote.plan.steps) {
        if (step.write_pages > 0) {
          pool.DirtyRandom(workload.schema.Get(step.relation), step.write_pages, rng,
                           rc.write_skew);
        }
      }
    }
    if (pool.dirty_pages() >= rc.flush_batch_pages) {
      pool.TakeDirtyForFlush(rc.flush_batch_pages);
    }
  };

  // Warm to capacity (bounded, in case the mix's footprint is smaller).
  for (int i = 0; i < 200'000 && pool.used_pages() < pool.capacity_pages(); ++i) {
    one_txn();
  }
  const uint64_t before = pool.stats().hits + pool.stats().misses;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 256; ++i) {
      one_txn();
    }
    elapsed = SecondsSince(start);
  } while (elapsed < budget_s);
  PoolReplay out;
  out.page_touches = pool.stats().hits + pool.stats().misses - before;
  out.ns_per_page_touch =
      out.page_touches > 0 ? 1e9 * elapsed / static_cast<double>(out.page_touches) : 0.0;
  return out;
}

CertifierReplay ReplayCertifier(const std::vector<tashkent::Writeset>& log, size_t replicas) {
  CertifierReplay out;
  if (log.size() < 10) {
    return out;
  }
  tashkent::Certifier cert;
  uint64_t prods = 0;
  cert.SetProdCallback([&prods](tashkent::ReplicaId) { ++prods; });
  for (tashkent::ReplicaId r = 0; r < replicas; ++r) {
    cert.Pull(r, 0);
  }

  std::vector<tashkent::Writeset> work = log;
  const size_t decile = work.size() / 10;
  for (size_t block = 0; block < 10; ++block) {
    const size_t lo = block * decile;
    const size_t hi = block == 9 ? work.size() : lo + decile;
    const Clock::time_point start = Clock::now();
    for (size_t i = lo; i < hi; ++i) {
      tashkent::Writeset& ws = work[i];
      const tashkent::Version lag = ws.commit_version - 1 - ws.snapshot_version;
      const tashkent::Version head = cert.head_version();
      ws.snapshot_version = head > lag ? head - lag : 0;
      ws.commit_version = 0;
      const tashkent::ReplicaId origin = ws.origin;
      const tashkent::Version snapshot = ws.snapshot_version;
      cert.Certify(std::move(ws), origin, snapshot);
    }
    out.decile_ns_per_certify.push_back(1e9 * SecondsSince(start) /
                                        static_cast<double>(hi - lo));
  }
  out.certifies = work.size();

  // Pulls from every replica at a spread of lags behind the head.
  const tashkent::Version head = cert.head_version();
  constexpr uint64_t kPulls = 200'000;
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < kPulls; ++i) {
    const tashkent::Version lag = i % 64;
    cert.Pull(static_cast<tashkent::ReplicaId>(i % replicas), head > lag ? head - lag : 0);
  }
  out.pulls = kPulls;
  out.ns_per_pull = 1e9 * SecondsSince(start) / static_cast<double>(kPulls);
  return out;
}

}  // namespace perfbench
