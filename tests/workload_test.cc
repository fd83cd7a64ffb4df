// Unit tests for workload models, the closed-loop client pool, and the
// Zipfian key-popularity sampler.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/workload/client.h"
#include "src/workload/fluid_pool.h"
#include "src/workload/rubis.h"
#include "src/workload/tpcw.h"

namespace tashkent {
namespace {

TEST(Mix, WeightsValidation) {
  EXPECT_THROW(Mix("bad", {}), std::invalid_argument);
  EXPECT_THROW(Mix("bad", {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Mix("bad", {-1.0, 2.0}), std::invalid_argument);
}

TEST(Mix, SamplingMatchesWeights) {
  Mix mix("m", {10.0, 0.0, 90.0});
  Rng rng(3);
  std::map<TxnTypeId, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[mix.Sample(rng)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.90, 0.01);
}

TEST(Tpcw, MixUpdateFractionsMatchPaper) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  // Paper: ordering 50%, shopping 20%, browsing 5%.
  EXPECT_NEAR(w.MixByName(kTpcwOrdering).UpdateFraction(w.registry), 0.50, 0.01);
  EXPECT_NEAR(w.MixByName(kTpcwShopping).UpdateFraction(w.registry), 0.20, 0.01);
  EXPECT_NEAR(w.MixByName(kTpcwBrowsing).UpdateFraction(w.registry), 0.05, 0.01);
}

TEST(Tpcw, MixWeightsSumTo100) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  for (const auto& mix : w.mixes) {
    double sum = 0.0;
    for (double x : mix.weights()) {
      sum += x;
    }
    EXPECT_NEAR(sum, 100.0, 1e-9) << mix.name();
    EXPECT_EQ(mix.weights().size(), w.registry.size());
  }
}

TEST(Tpcw, HasThirteenPaperTypes) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  EXPECT_EQ(w.registry.size(), 13u);
  for (const char* name :
       {"BestSeller", "AdminResponse", "BuyConfirm", "BuyRequest", "ShoppingCart", "ExecSearch",
        "OrderDisplay", "OrderInquiry", "ProductDetail", "HomeAction", "NewProduct",
        "SearchRequest", "AdminRequest"}) {
    EXPECT_NE(w.registry.Find(name), kInvalidTxnType) << name;
  }
}

TEST(Tpcw, SchemaScalesWithEbs) {
  const Workload small = BuildTpcw(kTpcwSmallEbs);
  const Workload large = BuildTpcw(kTpcwLargeEbs);
  // Fixed relations keep their size; scaled relations grow 5x.
  EXPECT_EQ(small.schema.Get(small.schema.Find("item")).pages,
            large.schema.Get(large.schema.Find("item")).pages);
  EXPECT_NEAR(static_cast<double>(large.schema.Get(large.schema.Find("customer")).pages) /
                  static_cast<double>(small.schema.Get(small.schema.Find("customer")).pages),
              5.0, 0.01);
}

TEST(Tpcw, UpdateTypesCarryWritesetBytes) {
  const Workload w = BuildTpcw(kTpcwMediumEbs);
  for (const auto& t : w.registry.types()) {
    if (t.is_update()) {
      // Paper: ~275-byte average writesets.
      EXPECT_GT(t.writeset_bytes, 200) << t.name;
      EXPECT_LT(t.writeset_bytes, 400) << t.name;
    } else {
      EXPECT_EQ(t.writeset_bytes, 0) << t.name;
    }
  }
}

TEST(Rubis, MixUpdateFractionsMatchPaper) {
  const Workload w = BuildRubis();
  // Paper: bidding 15% updates, browsing read-only.
  EXPECT_NEAR(w.MixByName(kRubisBidding).UpdateFraction(w.registry), 0.15, 0.012);
  EXPECT_DOUBLE_EQ(w.MixByName(kRubisBrowsing).UpdateFraction(w.registry), 0.0);
}

TEST(Rubis, HasSeventeenPaperTypes) {
  const Workload w = BuildRubis();
  EXPECT_EQ(w.registry.size(), 17u);
  for (const char* name :
       {"AboutMe", "PutBid", "StoreComment", "ViewBidHistory", "ViewUserInfo", "viewItem",
        "StoreBid", "RegisterItem", "SearchItemsByCategory", "Auth", "BrowseCategories",
        "BrowseRegions", "BuyNow", "PutComment", "RegisterUser", "SearchItemsByRegion",
        "StoreBuyNow"}) {
    EXPECT_NE(w.registry.Find(name), kInvalidTxnType) << name;
  }
}

TEST(Rubis, MixWeightsSumTo100) {
  const Workload w = BuildRubis();
  for (const auto& mix : w.mixes) {
    double sum = 0.0;
    for (double x : mix.weights()) {
      sum += x;
    }
    EXPECT_NEAR(sum, 100.0, 1e-9) << mix.name();
  }
}

// --- Zipf sampler properties (AccessSkew::SampleZipfRank) --------------------

TEST(ZipfSampler, RankFrequencyMatchesBoundedPowerLaw) {
  AccessSkew skew;
  skew.zipf_s = 1.0;
  Rng rng(17);
  const uint64_t n = 10000;
  const int samples = 200000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < samples; ++i) {
    const uint64_t rank = skew.SampleZipfRank(rng, n);
    ASSERT_LT(rank, n);
    ++counts[rank];
  }
  // Bounded power law at s=1: P(rank < k) = log(k+1) / log(n+1). The top
  // 100 of 10000 ranks carry log(101)/log(10001) ~= 50% of the mass.
  int top100 = 0;
  for (int r = 0; r < 100; ++r) {
    top100 += counts[r];
  }
  const double expected = std::log(101.0) / std::log(10001.0);
  EXPECT_NEAR(static_cast<double>(top100) / samples, expected, 0.01);
  // First moment: P(rank r) = log((r+2)/(r+1))/log(n+1), so rank 0 carries
  // log(2)/log(10001) ~= 7.5% and frequencies decay monotonically in
  // expectation.
  EXPECT_NEAR(static_cast<double>(counts[0]) / samples,
              std::log(2.0) / std::log(10001.0), 0.005);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[1000]);
}

TEST(ZipfSampler, SteeperExponentConcentratesMass) {
  const uint64_t n = 10000;
  const int samples = 100000;
  double top_mass[2];
  double exponents[2] = {0.8, 1.2};
  for (int i = 0; i < 2; ++i) {
    AccessSkew skew;
    skew.zipf_s = exponents[i];
    Rng rng(23);
    int top = 0;
    for (int s = 0; s < samples; ++s) {
      if (skew.SampleZipfRank(rng, n) < 100) {
        ++top;
      }
    }
    top_mass[i] = static_cast<double>(top) / samples;
  }
  EXPECT_GT(top_mass[1], top_mass[0] + 0.2);
}

TEST(ZipfSampler, DeterministicAcrossIdenticalSeeds) {
  AccessSkew skew;
  skew.zipf_s = 0.9;
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(skew.SampleZipfRank(a, 5000), skew.SampleZipfRank(b, 5000));
  }
}

// One uniform draw per sample regardless of exponent, bound, or outcome:
// this is what keeps per-cell skew streams pure (a cell's draw sequence is a
// function of its own seed alone, so `--jobs 4` == `--jobs 1`). A
// rejection-sampling implementation would break this invariant.
TEST(ZipfSampler, ConsumesExactlyOneDrawPerSample) {
  const int k = 777;
  AccessSkew steep;
  steep.zipf_s = 1.3;
  AccessSkew shallow;
  shallow.zipf_s = 0.5;
  Rng a(4242);
  Rng b(4242);
  Rng reference(4242);
  for (int i = 0; i < k; ++i) {
    steep.SampleZipfRank(a, 1000000);
    shallow.SampleZipfRank(b, 7);
    reference.NextDouble();
  }
  // After k samples every stream sits at the same position as a stream that
  // made k raw draws.
  EXPECT_EQ(a.NextDouble(), reference.NextDouble());
  a = Rng(4242);
  reference = Rng(4242);
  for (int i = 0; i < k; ++i) {
    a.NextDouble();
    reference.NextDouble();
  }
  EXPECT_EQ(b.NextDouble(), a.NextDouble());
}

// zipf_s == 0 must leave the hot/cold model's draw sequence untouched — the
// golden digest pins it.
TEST(ZipfSampler, ZeroExponentPreservesHotColdDrawSequence) {
  const AccessSkew plain;  // defaults: hot/cold, zipf_s 0
  AccessSkew armed;
  armed.zipf_s = 0.0;
  armed.hot_fraction = plain.hot_fraction;
  armed.hot_weight = plain.hot_weight;
  Rng a(31);
  Rng b(31);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(plain.SamplePage(a, 12345), armed.SamplePage(b, 12345));
    EXPECT_EQ(plain.SampleWindowStart(a, 12345, 100), armed.SampleWindowStart(b, 12345, 100));
  }
}

// --- ClientPool population retargeting ---------------------------------------

TEST(ClientPool, SetPopulationGrowsAndShrinksThroughput) {
  Simulator sim;
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClientPool pool(&sim, &w, &w.mixes[0], 10, Millis(100), Rng(5));
  int completed = 0;
  pool.SetDispatch([&sim, &pool](const TxnType&, uint32_t token) {
    sim.ScheduleAfter(Micros(1), [&pool, token]() { pool.Complete(token, true); });
  });
  pool.SetOnCommit([&](const TxnType&, SimDuration) { ++completed; });
  pool.Start();
  sim.RunUntil(Seconds(10.0));
  const int base = completed;  // ~1000: 10 clients / 0.1 s think
  EXPECT_NEAR(base, 1000, 150);

  pool.SetPopulation(30);
  EXPECT_EQ(pool.population(), 30u);
  completed = 0;
  sim.RunUntil(Seconds(20.0));
  EXPECT_NEAR(completed, 3000, 300);

  pool.SetPopulation(5);
  completed = 0;
  sim.RunUntil(Seconds(30.0));  // surplus clients park at their next think
  EXPECT_NEAR(completed, 500, 150);

  // Regrow: parked clients respawn (never double-started — throughput
  // returns to the 10-client rate, not above it).
  pool.SetPopulation(10);
  completed = 0;
  sim.RunUntil(Seconds(40.0));
  EXPECT_NEAR(completed, 1000, 200);
}

TEST(ClientPool, ClosedLoopThroughput) {
  // With dispatch completing instantly, throughput is clients / think time.
  Simulator sim;
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClientPool pool(&sim, &w, &w.mixes[0], 10, Millis(100), Rng(5));
  int completed = 0;
  pool.SetDispatch([&sim, &pool](const TxnType&, uint32_t token) {
    sim.ScheduleAfter(Micros(1), [&pool, token]() { pool.Complete(token, true); });
  });
  pool.SetOnCommit([&](const TxnType&, SimDuration) { ++completed; });
  pool.Start();
  sim.RunUntil(Seconds(10.0));
  // 10 clients / 0.1 s think = 100 tps => ~1000 completions in 10 s.
  EXPECT_NEAR(completed, 1000, 150);
}

TEST(ClientPool, AbortedTransactionsRetry) {
  Simulator sim;
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  ClientPool pool(&sim, &w, &w.mixes[0], 1, Millis(10), Rng(6));
  int attempts = 0;
  int commits = 0;
  int aborts = 0;
  pool.SetDispatch([&](const TxnType&, uint32_t token) {
    ++attempts;
    const bool ok = attempts % 3 != 0;  // every third attempt aborts
    sim.ScheduleAfter(Micros(10), [&pool, token, ok]() { pool.Complete(token, ok); });
  });
  pool.SetOnCommit([&](const TxnType&, SimDuration) { ++commits; });
  pool.SetOnAbort([&](const TxnType&) { ++aborts; });
  pool.Start();
  sim.RunUntil(Seconds(1.0));
  EXPECT_GT(aborts, 0);
  EXPECT_NEAR(attempts, commits + aborts, 1);
}

// An aborted transaction comes back 5 ms later under the same token, with
// the same type, and its response time counts from the first dispatch.
template <typename Pool>
void ExpectRetryKeepsTypeAndStart() {
  Simulator sim;
  const Workload w = BuildTpcw(kTpcwSmallEbs);
  Pool pool(&sim, &w, &w.mixes[0], 1, Millis(10), Rng(8));
  struct Attempt {
    SimTime at;
    TxnTypeId type;
    uint32_t token;
  };
  std::vector<Attempt> attempts;
  std::vector<std::pair<TxnTypeId, SimDuration>> commits;
  pool.SetDispatch([&](const TxnType& type, uint32_t token) {
    if (!commits.empty()) {
      return;  // the next transaction is left unanswered
    }
    attempts.push_back({sim.Now(), type.id, token});
    // The first two attempts abort after 10 us; the third commits.
    const bool ok = attempts.size() == 3;
    sim.ScheduleAfter(Micros(10), [&pool, token, ok]() { pool.Complete(token, ok); });
  });
  int aborts = 0;
  pool.SetOnCommit([&](const TxnType& t, SimDuration response) {
    commits.emplace_back(t.id, response);
  });
  pool.SetOnAbort([&](const TxnType& t) {
    ++aborts;
    EXPECT_EQ(t.id, attempts.front().type);
  });
  pool.Start();
  sim.RunUntil(Seconds(1.0));
  ASSERT_EQ(commits.size(), 1u);
  ASSERT_EQ(attempts.size(), 3u);
  EXPECT_EQ(aborts, 2);
  for (const Attempt& a : attempts) {
    EXPECT_EQ(a.type, attempts[0].type);
    EXPECT_EQ(a.token, attempts[0].token);
  }
  EXPECT_EQ(attempts[1].at - attempts[0].at, Micros(10) + Millis(5));
  EXPECT_EQ(attempts[2].at - attempts[1].at, Micros(10) + Millis(5));
  EXPECT_EQ(commits[0].first, attempts[0].type);
  EXPECT_EQ(commits[0].second, 2 * (Micros(10) + Millis(5)) + Micros(10));
}

TEST(ClientPool, AbortRetryKeepsTypeAndOriginalStart) {
  ExpectRetryKeepsTypeAndStart<ClientPool>();
}

TEST(FluidClientPool, AbortRetryKeepsTypeAndOriginalStart) {
  ExpectRetryKeepsTypeAndStart<FluidClientPool>();
}

TEST(ClientPool, MixSwitchTakesEffect) {
  Simulator sim;
  Workload w = BuildTpcw(kTpcwSmallEbs);
  ClientPool pool(&sim, &w, &w.MixByName(kTpcwOrdering), 20, Millis(50), Rng(7));
  std::map<std::string, int> counts;
  pool.SetDispatch([&sim, &pool](const TxnType&, uint32_t token) {
    sim.ScheduleAfter(Micros(1), [&pool, token]() { pool.Complete(token, true); });
  });
  pool.SetOnCommit([&](const TxnType& t, SimDuration) { ++counts[t.name]; });
  pool.Start();
  sim.RunUntil(Seconds(20.0));
  const int updates_before = counts["ShoppingCart"];
  EXPECT_GT(updates_before, 0);

  counts.clear();
  pool.SetMix(&w.MixByName(kTpcwBrowsing));
  sim.RunUntil(Seconds(40.0));
  // Browsing mix has 2% ShoppingCart vs 18% in ordering.
  const double total = static_cast<double>(counts["ShoppingCart"] + counts["HomeAction"] +
                                           counts["ProductDetail"] + counts["SearchRequest"]);
  EXPECT_LT(counts["ShoppingCart"] / total, 0.10);
}

}  // namespace
}  // namespace tashkent
