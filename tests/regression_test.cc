// Regression tests pinning behaviours that calibration depends on: exact
// packing anchors, estimator arithmetic on the real schemas, LARD set decay,
// and certifier prune safety.
#include <gtest/gtest.h>

#include "src/balancer/lard.h"
#include "src/certifier/certifier.h"
#include "src/core/bin_packing.h"
#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

TEST(Regression, TpcwAnchorEstimatesInMb) {
  // These anchors drove the Table 2 derivation (DESIGN.md); if a schema edit
  // moves them, the groupings will silently change — pin them.
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  const auto ws = BuildWorkingSets(w.registry, w.schema);
  auto mb = [&](const char* name) {
    const auto& t = ws[w.registry.Find(name)];
    return BytesToMiB(PagesToBytes(t.EstimatePages(EstimationMethod::kSizeContent)));
  };
  EXPECT_NEAR(mb("OrderDisplay"), 1536, 2);
  EXPECT_NEAR(mb("BuyConfirm"), 1430, 2);
  EXPECT_NEAR(mb("AdminResponse"), 720, 2);
  EXPECT_NEAR(mb("BestSeller"), 605, 2);
  EXPECT_NEAR(mb("BuyRequest"), 381, 2);
  EXPECT_NEAR(mb("ShoppingCart"), 252, 2);
}

TEST(Regression, RubisAnchorEstimatesInMb) {
  const Workload w = BuildRubis();
  const auto ws = BuildWorkingSets(w.registry, w.schema);
  auto mb = [&](const char* name) {
    const auto& t = ws[w.registry.Find(name)];
    return BytesToMiB(PagesToBytes(t.EstimatePages(EstimationMethod::kSizeContent)));
  };
  EXPECT_GT(mb("AboutMe"), 2000);            // overflow: reads almost everything
  EXPECT_NEAR(mb("PutBid"), 312, 2);
  EXPECT_NEAR(mb("ViewBidHistory"), 312, 2);
  EXPECT_NEAR(mb("viewItem"), 327, 2);
  EXPECT_NEAR(mb("Auth"), 138, 2);
}

TEST(Regression, PackingStableAcrossCapacityJitter) {
  // The Table 2 grouping must be robust to small capacity perturbations
  // (the paper subtracts "about" 70 MB); +-8 MB must not flip the packing.
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  const auto ws = BuildWorkingSets(w.registry, w.schema);
  const auto reference =
      PackTransactionGroups(ws, BytesToPages(442 * kMiB), EstimationMethod::kSizeContent);
  for (int delta_mb : {-8, -4, 4, 8}) {
    const auto jittered = PackTransactionGroups(
        ws, BytesToPages((442 + delta_mb) * kMiB), EstimationMethod::kSizeContent);
    ASSERT_EQ(jittered.groups.size(), reference.groups.size()) << delta_mb;
    for (size_t g = 0; g < reference.groups.size(); ++g) {
      EXPECT_EQ(jittered.groups[g].types, reference.groups[g].types) << delta_mb;
    }
  }
}

TEST(Regression, LardSetDecayDropsIdleMembers) {
  Simulator sim;
  Schema schema;
  const RelationId t = schema.AddTable("t", MiB(1));
  TxnTypeRegistry registry;
  TxnType type;
  type.name = "T";
  type.plan.steps = {Random(t, 1)};
  registry.Add(std::move(type));
  Certifier certifier;
  ReplicaConfig rc;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<Proxy>> proxies;
  for (ReplicaId r = 0; r < 4; ++r) {
    replicas.push_back(std::make_unique<Replica>(&sim, &schema, r, rc, Rng(r + 1)));
    proxies.push_back(std::make_unique<Proxy>(&sim, replicas.back().get(), &certifier));
  }
  BalancerContext ctx;
  ctx.sim = &sim;
  ctx.registry = &registry;
  ctx.schema = &schema;
  for (auto& p : proxies) {
    ctx.proxies.push_back(p.get());
  }
  LardBalancer lard(std::move(ctx));

  const TxnType& txn = registry.Get(0);
  // Grow the set to 2 by overloading the home replica.
  const size_t home = lard.Route(txn);
  for (int i = 0; i < 2 * static_cast<int>(kLardTHigh) + 2; ++i) {
    proxies[home]->SubmitTransaction(txn, [](bool) {});
  }
  lard.Route(txn);
  EXPECT_GE(lard.ReplicaSet(0).size(), 2u);
  // After the decay window with no routes, the set shrinks again.
  sim.RunAll();
  sim.RunUntil(sim.Now() + kLardSetDecay + Seconds(1.0));
  lard.Route(txn);
  EXPECT_EQ(lard.ReplicaSet(0).size(), 1u);
}

TEST(Regression, CertifierPruneKeepsRecentConflicts) {
  Certifier c;
  Version applied = 0;
  for (int i = 0; i < 100; ++i) {
    Writeset ws;
    ws.snapshot_version = applied;
    ws.items = {{1, static_cast<uint64_t>(i)}};
    ws.table_pages = {{1, 1}};
    applied = c.Certify(std::move(ws), 0, applied).commit_version;
  }
  c.PruneBelow(50);
  // A stale snapshot writing a recently-written row still conflicts.
  Writeset stale;
  stale.snapshot_version = 60;
  stale.items = {{1, 99}};
  const auto r = c.Certify(std::move(stale), 1, 60);
  EXPECT_FALSE(r.committed);
}

TEST(Regression, WritesetSizesNearPaperAverage) {
  // The paper reports ~275-byte writesets for both benchmarks.
  for (const Workload& w : {BuildTpcw(kTpcwMediumEbs), BuildRubis()}) {
    double total = 0.0;
    int n = 0;
    for (const auto& t : w.registry.types()) {
      if (t.is_update()) {
        total += static_cast<double>(t.writeset_bytes);
        ++n;
      }
    }
    ASSERT_GT(n, 0);
    EXPECT_NEAR(total / n, 275.0, 25.0) << w.name;
  }
}

}  // namespace
}  // namespace tashkent
