// Unit tests for the replica node: execution phases, caching effects,
// writeset production and application, background writer, monitor.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/alloc_guard.h"
#include "src/replica/replica.h"

namespace tashkent {
namespace {

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest() {
    table_ = schema_.AddTable("t", MiB(16));
    big_ = schema_.AddTable("big", MiB(600));
    config_.memory = 128 * kMiB;
    config_.reserved = 0;
    replica_ = std::make_unique<Replica>(&sim_, &schema_, 0, config_, Rng(1));
  }

  TxnType ReadType(int pages) {
    TxnType t;
    t.name = "read";
    t.id = 0;
    t.base_cpu = Millis(1);
    t.plan.steps = {Random(table_, pages)};
    return t;
  }

  TxnType UpdateType() {
    TxnType t;
    t.name = "update";
    t.id = 1;
    t.base_cpu = Millis(1);
    t.writeset_bytes = 275;
    t.plan.steps = {Random(table_, 2), Write(table_, 0, 3)};
    return t;
  }

  Simulator sim_;
  Schema schema_;
  RelationId table_ = 0;
  RelationId big_ = 0;
  ReplicaConfig config_;
  std::unique_ptr<Replica> replica_;
};

TEST_F(ReplicaTest, ReadOnlyCompletesWithoutWriteset) {
  const TxnType t = ReadType(4);
  bool done = false;
  replica_->Execute(t, [&](ExecOutcome o) {
    done = true;
    EXPECT_FALSE(o.is_update);
    EXPECT_EQ(o.pages_touched, 4);
    EXPECT_GT(o.pages_read_rand, 0);  // cold cache: misses
  });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(replica_->stats().txns_executed, 1u);
}

TEST_F(ReplicaTest, SecondExecutionIsCheaper) {
  // Warm the cache with many executions, then check a later one is mostly
  // hits (disk read bytes stop growing).
  const TxnType t = ReadType(8);
  for (int i = 0; i < 200; ++i) {
    replica_->Execute(t, [](ExecOutcome) {});
  }
  sim_.RunAll();
  const Bytes after_warm = replica_->stats().disk_read_bytes;
  for (int i = 0; i < 50; ++i) {
    replica_->Execute(t, [](ExecOutcome) {});
  }
  sim_.RunAll();
  const Bytes delta = replica_->stats().disk_read_bytes - after_warm;
  // The 16 MiB table's hot core is cached by now; misses should be rare.
  EXPECT_LT(delta, MiB(2));
}

TEST_F(ReplicaTest, ColdScanTakesDiskTime) {
  TxnType t;
  t.name = "scan";
  t.id = 2;
  t.base_cpu = Millis(1);
  t.plan.steps = {Scan(table_)};
  const SimTime start = sim_.Now();
  SimTime end = 0;
  replica_->Execute(t, [&](ExecOutcome o) {
    end = sim_.Now();
    EXPECT_EQ(o.pages_read_seq, BytesToPages(MiB(16)));
  });
  sim_.RunAll();
  // 16 MiB at the configured sequential bandwidth plus CPU: at least 100 ms.
  EXPECT_GT(end - start, Millis(100));
}

TEST_F(ReplicaTest, UpdateProducesWriteset) {
  const TxnType t = UpdateType();
  Writeset ws;
  replica_->Execute(t, [&](ExecOutcome o) {
    EXPECT_TRUE(o.is_update);
    ws = o.writeset;
  });
  sim_.RunAll();
  EXPECT_EQ(ws.origin, 0u);
  EXPECT_EQ(ws.type, 1u);
  EXPECT_EQ(ws.bytes, 275);
  ASSERT_EQ(ws.table_pages.size(), 1u);
  EXPECT_EQ(ws.table_pages[0].relation, table_);
  EXPECT_EQ(ws.table_pages[0].pages, 3);
  EXPECT_EQ(ws.items.size(), 3u);
}

TEST_F(ReplicaTest, ApplyBatchDirtiesPages) {
  Writeset ws;
  ws.table_pages = {{table_, 4}};
  Replica::ApplyBatch batch;
  replica_->StageApply(ws, batch);
  EXPECT_EQ(batch.count, 1u);
  EXPECT_EQ(batch.touched, 4);
  bool done = false;
  replica_->SubmitApplyBatch(batch, [&]() { done = true; });
  sim_.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(replica_->stats().writesets_applied, 1u);
  // Writes concentrate on the hot leading region, so draws may collide and
  // coalesce: between 1 and 4 distinct pages end up dirty.
  EXPECT_GE(replica_->pool().dirty_pages(), 1);
  EXPECT_LE(replica_->pool().dirty_pages(), 4);
  EXPECT_GT(replica_->stats().apply_read_bytes, 0);
}

TEST_F(ReplicaTest, BackgroundWriterFlushesDirtyPages) {
  replica_->StartDaemons();
  Writeset ws;
  ws.table_pages = {{table_, 8}};
  Replica::ApplyBatch batch;
  replica_->StageApply(ws, batch);
  replica_->SubmitApplyBatch(batch, nullptr);
  sim_.RunUntil(Seconds(3.0));
  EXPECT_EQ(replica_->pool().dirty_pages(), 0);
  // All distinct dirtied pages (<= 8 after hot-region coalescing) flushed.
  EXPECT_GT(replica_->stats().disk_write_bytes, 0);
  EXPECT_LE(replica_->stats().disk_write_bytes, PagesToBytes(8));
}

TEST_F(ReplicaTest, MonitorReportsUtilization) {
  replica_->StartDaemons();
  // Keep the CPU busy ~50% for several seconds.
  for (int i = 0; i < 10; ++i) {
    TxnType t = ReadType(1);
    t.base_cpu = Millis(500);
    replica_->Execute(t, [](ExecOutcome) {});
  }
  sim_.RunUntil(Seconds(5.0));
  EXPECT_GT(replica_->smoothed_cpu(), 0.3);  // ~50% busy while work remains
  // After a long idle period the smoothed value decays.
  sim_.RunUntil(Seconds(40.0));
  EXPECT_LT(replica_->smoothed_cpu(), 0.05);
}

TEST_F(ReplicaTest, DropRelationEvictsCache) {
  const TxnType t = ReadType(10);
  for (int i = 0; i < 50; ++i) {
    replica_->Execute(t, [](ExecOutcome) {});
  }
  sim_.RunAll();
  EXPECT_GT(replica_->pool().ResidentPages(table_), 0);
  replica_->DropRelation(table_);
  EXPECT_EQ(replica_->pool().ResidentPages(table_), 0);
}

TEST_F(ReplicaTest, ThrashingScanAlwaysReadsDisk) {
  // The big table exceeds the 128 MiB pool: every scan re-reads everything —
  // the paper's memory-contention regime.
  TxnType t;
  t.name = "bigscan";
  t.id = 3;
  t.plan.steps = {Scan(big_)};
  Bytes before = 0;
  for (int i = 0; i < 3; ++i) {
    before = replica_->stats().disk_read_bytes;
    replica_->Execute(t, [](ExecOutcome) {});
    sim_.RunAll();
    EXPECT_EQ(replica_->stats().disk_read_bytes - before, MiB(600));
  }
}

// An out-of-range skew would sample pages past a relation's end, so the
// constructor rejects it by field name; every in-range edge still constructs.
TEST(ReplicaConfigCheck, RejectsOutOfRangeSkews) {
  Simulator sim;
  Schema schema;
  schema.AddTable("t", MiB(16));
  auto make = [&](const ReplicaConfig& config) {
    Replica replica(&sim, &schema, 3, config, Rng(1));
  };
  auto expect_rejected = [&](const ReplicaConfig& config, const std::string& field) {
    try {
      make(config);
      ADD_FAILURE() << "no std::invalid_argument naming " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ReplicaConfig base;
  base.memory = 128 * kMiB;
  base.reserved = 0;

  ReplicaConfig c = base;
  c.skew = AccessSkew{1.5, 1.0};
  EXPECT_THROW(make(c), std::invalid_argument);
  expect_rejected(c, "skew.hot_fraction");
  c.skew = AccessSkew{-0.1, 0.9};
  expect_rejected(c, "skew.hot_fraction");
  c.skew = AccessSkew{nan, 0.9};
  expect_rejected(c, "skew.hot_fraction");
  c.skew = AccessSkew{0.35, 1.01};
  expect_rejected(c, "skew.hot_weight");
  c.skew = AccessSkew{0.35, nan};
  expect_rejected(c, "skew.hot_weight");
  c.skew = AccessSkew{};
  c.skew.zipf_s = -0.5;
  expect_rejected(c, "skew.zipf_s");
  c.skew.zipf_s = inf;
  expect_rejected(c, "skew.zipf_s");
  c.skew.zipf_s = nan;
  expect_rejected(c, "skew.zipf_s");

  c = base;
  c.write_skew = AccessSkew{2.0, 0.95};
  expect_rejected(c, "write_skew.hot_fraction");
  c.write_skew = AccessSkew{0.03, -1.0};
  expect_rejected(c, "write_skew.hot_weight");
  c.write_skew.hot_weight = 0.95;
  c.write_skew.zipf_s = -1.0;
  expect_rejected(c, "write_skew.zipf_s");

  // The edges of the ranges, and the skews the campaigns use, construct.
  for (const AccessSkew& ok : {AccessSkew{}, AccessSkew{1.0, 0.0}, AccessSkew{0.0, 1.0},
                               AccessSkew{0.03, 0.95}, AccessSkew{0.35, 0.90, 1.3}}) {
    c = base;
    c.skew = ok;
    c.write_skew = ok;
    EXPECT_NO_THROW(make(c));
  }
}

// --- parked transactions ------------------------------------------------------

// A burst of concurrent Execute calls queues on the disk and CPU while each
// transaction waits in its in-flight slot. The buffer-pool work and the random
// draws happen at Execute time, so a twin replica (same seed, same schema) that
// runs the same calls one at a time must hand every `done` the same outcome.
// Every type scans a relation twice the pool's size, so every transaction
// misses and waits on the disk: FIFO on the disk, then FIFO on the CPU, makes
// completions arrive in submission order. A second burst of the same depth
// reuses the slab's slots (and the rings' and the simulator's storage), so it
// allocates nothing.
TEST(ReplicaParkedTransactions, BurstMatchesSerialTwinInFifoOrderWithoutAllocating) {
  Schema schema;
  const RelationId table = schema.AddTable("t", MiB(16));
  const RelationId cold = schema.AddTable("cold", MiB(4));
  const RelationId hot = schema.AddTable("hot", PagesToBytes(1));
  ReplicaConfig config;
  config.memory = 2 * kMiB;
  config.reserved = 0;

  auto make_type = [](TxnTypeId id, std::vector<PlanStep> steps) {
    TxnType t;
    t.name = "type" + std::to_string(id);
    t.id = id;
    t.base_cpu = Millis(1);
    t.writeset_bytes = 200;
    t.plan.steps = std::move(steps);
    return t;
  };
  const std::vector<TxnType> types = {
      make_type(0, {Random(table, 4), Scan(cold)}),
      make_type(1, {Random(table, 2), Write(hot, 1, 2), Scan(cold)}),
      make_type(2, {ScanWindow(table, 96), Scan(cold)}),
      make_type(3, {Write(hot, 0, 1), Random(table, 6), Scan(cold)}),
  };
  constexpr int kDepth = 24;
  constexpr int kBursts = 2;

  // The twin: the same 2 * kDepth calls, each run to completion alone.
  Simulator serial_sim;
  Replica serial(&serial_sim, &schema, 0, config, Rng(5));
  std::vector<ExecOutcome> expected(kBursts * kDepth);
  for (int i = 0; i < kBursts * kDepth; ++i) {
    serial.Execute(types[i % types.size()], [&expected, i](ExecOutcome o) { expected[i] = o; });
    serial_sim.RunAll();
    ASSERT_GT(expected[i].pages_read_seq, 0) << "call " << i << " skipped the disk";
  }

  Simulator sim;
  Replica replica(&sim, &schema, 0, config, Rng(5));
  std::vector<ExecOutcome> got(kBursts * kDepth);
  std::vector<int> order;
  order.reserve(kBursts * kDepth);
  auto burst = [&](int base) {
    for (int i = base; i < base + kDepth; ++i) {
      replica.Execute(types[i % types.size()], [&got, &order, i](ExecOutcome o) {
        got[i] = std::move(o);
        order.push_back(i);
      });
    }
    EXPECT_EQ(replica.disk_queue(), static_cast<size_t>(kDepth));
    sim.RunAll();
  };

  burst(0);
  {
    AllocGuard::Forbid forbid;
    burst(kDepth);
    EXPECT_EQ(forbid.seen(), 0u) << "a warm burst allocated: in-flight slots were not recycled";
  }

  ASSERT_EQ(order.size(), static_cast<size_t>(kBursts * kDepth));
  for (int i = 0; i < kBursts * kDepth; ++i) {
    EXPECT_EQ(order[i], i) << "completions left FIFO order";
    const ExecOutcome& want = expected[i];
    const ExecOutcome& have = got[i];
    EXPECT_EQ(have.is_update, want.is_update) << "call " << i;
    EXPECT_EQ(have.pages_touched, want.pages_touched) << "call " << i;
    EXPECT_EQ(have.pages_read_seq, want.pages_read_seq) << "call " << i;
    EXPECT_EQ(have.pages_read_rand, want.pages_read_rand) << "call " << i;
    EXPECT_TRUE(have.writeset.items == want.writeset.items) << "call " << i;
    EXPECT_TRUE(have.writeset.table_pages == want.writeset.table_pages) << "call " << i;
  }
  EXPECT_TRUE(got[1].is_update);
  EXPECT_EQ(got[1].writeset.items.size(), 2u);
  EXPECT_EQ(replica.stats().txns_executed, static_cast<uint64_t>(kBursts * kDepth));
}

}  // namespace
}  // namespace tashkent
