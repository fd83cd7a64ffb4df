// Property-based tests: parameterized sweeps over packing, allocation, and
// buffer-pool invariants.
#include <gtest/gtest.h>

#include <numeric>

#include "src/common/rng.h"
#include "src/core/allocation.h"
#include "src/core/bin_packing.h"
#include "src/storage/buffer_pool.h"

namespace tashkent {
namespace {

// --- Bin packing invariants over randomized inputs ------------------------

class PackingProperty : public ::testing::TestWithParam<uint64_t> {};

std::vector<TypeWorkingSet> RandomWorkingSets(Rng& rng) {
  const size_t n_types = 3 + rng.NextBelow(20);
  const size_t n_rels = 4 + rng.NextBelow(24);
  std::vector<Pages> rel_pages(n_rels);
  for (auto& p : rel_pages) {
    p = 1 + static_cast<Pages>(rng.NextBelow(60000));
  }
  std::vector<TypeWorkingSet> out;
  for (size_t t = 0; t < n_types; ++t) {
    TypeWorkingSet ws;
    ws.type = static_cast<TxnTypeId>(t);
    ws.name = "T" + std::to_string(t);
    const size_t k = 1 + rng.NextBelow(6);
    for (size_t j = 0; j < k; ++j) {
      const RelationId rel = static_cast<RelationId>(rng.NextBelow(n_rels));
      bool seen = false;
      for (const auto& e : ws.relations) {
        if (e.relation == rel) {
          seen = true;
        }
      }
      if (seen) {
        continue;
      }
      ExplainEntry e;
      e.relation = rel;
      e.pages = rel_pages[rel];
      e.scanned = rng.NextBool(0.3);
      ws.relations.push_back(e);
    }
    ws.random_pages_per_exec = static_cast<Pages>(rng.NextBelow(40));
    out.push_back(std::move(ws));
  }
  return out;
}

TEST_P(PackingProperty, InvariantsHoldForAllMethods) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const auto ws = RandomWorkingSets(rng);
    const Pages capacity = 1000 + static_cast<Pages>(rng.NextBelow(120000));
    for (const auto method : {EstimationMethod::kSize, EstimationMethod::kSizeContent,
                              EstimationMethod::kSizeContentAccess}) {
      const auto r = PackTransactionGroups(ws, capacity, method);

      // 1. Every type appears in exactly one group.
      size_t total_types = 0;
      for (const auto& g : r.groups) {
        total_types += g.types.size();
        EXPECT_FALSE(g.types.empty());
      }
      EXPECT_EQ(total_types, ws.size());

      // 2. Non-overflow groups respect capacity.
      for (const auto& g : r.groups) {
        if (!g.overflow) {
          EXPECT_LE(g.estimate_pages, capacity);
        }
      }

      // 3. Overflow groups are seeded by a type whose own estimate exceeds
      //    capacity.
      for (const auto& g : r.groups) {
        if (g.overflow) {
          bool any_over = false;
          for (TxnTypeId t : g.types) {
            for (const auto& w : ws) {
              if (w.type == t && w.EstimatePages(method) > capacity) {
                any_over = true;
              }
            }
          }
          EXPECT_TRUE(any_over);
        }
      }

      // 4. Determinism: re-packing yields identical groups.
      const auto r2 = PackTransactionGroups(ws, capacity, method);
      ASSERT_EQ(r.groups.size(), r2.groups.size());
      for (size_t g = 0; g < r.groups.size(); ++g) {
        EXPECT_EQ(r.groups[g].types, r2.groups[g].types);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Fast-target allocation invariants -------------------------------------

class AllocationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocationProperty, TargetsConserveReplicasAndFloors) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = 2 + rng.NextBelow(10);
    const int total = static_cast<int>(n + rng.NextBelow(30));
    std::vector<GroupLoad> groups(n);
    for (auto& g : groups) {
      g.replicas = 1 + static_cast<int>(rng.NextBelow(8));
      g.cpu = rng.NextDouble();
      g.disk = rng.NextDouble();
    }
    const auto targets = ComputeFastTargets(groups, total);
    const int sum = std::accumulate(targets.begin(), targets.end(), 0);
    EXPECT_EQ(sum, total);
    for (int t : targets) {
      EXPECT_GE(t, 1);
    }
    // Monotonicity: the group with the highest demand never gets fewer
    // replicas than the group with the lowest demand.
    size_t hi = 0, lo = 0;
    for (size_t i = 1; i < n; ++i) {
      if (groups[i].TotalDemand() > groups[hi].TotalDemand()) {
        hi = i;
      }
      if (groups[i].TotalDemand() < groups[lo].TotalDemand()) {
        lo = i;
      }
    }
    EXPECT_GE(targets[hi], targets[lo]);
  }
}

TEST_P(AllocationProperty, RebalanceMovePassesHysteresis) {
  Rng rng(GetParam() + 100);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = 2 + rng.NextBelow(8);
    std::vector<GroupLoad> groups(n);
    for (auto& g : groups) {
      g.replicas = 1 + static_cast<int>(rng.NextBelow(6));
      g.cpu = rng.NextDouble() * 1.5;  // may exceed 1 with queue pressure
      g.disk = rng.NextDouble();
    }
    const auto move = PickRebalanceMove(groups);
    if (!move) {
      continue;
    }
    EXPECT_NE(move->from, move->to);
    EXPECT_GE(groups[move->from].replicas, 2);
    // The move is justified: target load >= hysteresis * donor future load.
    EXPECT_GE(groups[move->to].Load(),
              kHysteresis * groups[move->from].FutureLoadIfRemoved() - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationProperty, ::testing::Values(11, 12, 13, 14));

// --- Buffer pool invariants under random operation sequences ---------------

class PoolProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolProperty, CapacityAndDirtyInvariants) {
  Rng rng(GetParam());
  const Pages capacity = 64 + static_cast<Pages>(rng.NextBelow(2000));
  BufferPool pool(PagesToBytes(capacity), 8);
  std::vector<RelationMeta> rels;
  for (RelationId r = 0; r < 6; ++r) {
    RelationMeta m;
    m.id = r;
    m.pages = 8 + static_cast<Pages>(rng.NextBelow(3000));
    rels.push_back(m);
  }
  Pages outstanding_dirty = 0;
  for (int op = 0; op < 3000; ++op) {
    const auto& rel = rels[rng.NextBelow(rels.size())];
    switch (rng.NextBelow(5)) {
      case 0:
        pool.TouchScan(rel);
        break;
      case 1:
        pool.TouchScanWindow(rel, 1 + static_cast<Pages>(rng.NextBelow(64)), rng, AccessSkew{});
        break;
      case 2:
        pool.TouchRandom(rel, 1 + static_cast<int>(rng.NextBelow(16)), rng);
        break;
      case 3:
        outstanding_dirty += pool.DirtyRandom(rel, 1 + static_cast<int>(rng.NextBelow(8)), rng)
                                 .newly_dirtied;
        break;
      case 4:
        outstanding_dirty -= pool.TakeDirtyForFlush(static_cast<Pages>(rng.NextBelow(64)));
        break;
    }
    ASSERT_LE(pool.used_pages(), capacity);
    ASSERT_EQ(pool.dirty_pages(), outstanding_dirty);
    ASSERT_GE(outstanding_dirty, 0);
  }
  // Hits + misses accounting is consistent.
  EXPECT_GT(pool.stats().hits + pool.stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolProperty, ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace tashkent
