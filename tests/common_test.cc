// Unit tests for src/common: units, RNG, statistics accumulators, the inline
// callback, the open-addressing index, the small vector, and the slab-list
// helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/inline_callback.h"
#include "src/common/open_hash.h"
#include "src/common/rng.h"
#include "src/common/slab_list.h"
#include "src/common/small_vec.h"
#include "src/common/stats.h"
#include "src/common/units.h"

namespace tashkent {
namespace {

TEST(Units, Conversions) {
  EXPECT_EQ(Millis(1), 1000);
  EXPECT_EQ(Seconds(1.0), 1000000);
  EXPECT_EQ(Seconds(0.5), 500000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.5)), 2.5);
  EXPECT_EQ(PagesToBytes(1), 8192);
  EXPECT_EQ(BytesToPages(8192), 1);
  EXPECT_EQ(BytesToPages(8193), 2);  // rounds up
  EXPECT_EQ(BytesToPages(1), 1);
  EXPECT_EQ(MiB(1.0), 1024 * 1024);
  EXPECT_EQ(BytesToPages(MiB(1.0)), 128);  // 128 8KB pages per MiB
}

TEST(Rng, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
  }
  // bound 1 always yields 0.
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, NextBelowUniformish) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextBelow(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(2.0);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, ForkIndependent) {
  Rng parent(99);
  Rng child = parent.Fork();
  // The child stream differs from the parent's continuation.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

TEST(SampleDiscrete, RespectsWeights) {
  Rng rng(17);
  const std::vector<double> cumulative = {10.0, 10.0, 110.0};  // weights 10, 0, 100
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[SampleDiscrete(rng, cumulative)];
  }
  EXPECT_EQ(counts[1], 0);  // zero-weight bucket never sampled
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[2], 0.1, 0.02);
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) {
    e.Add(0.7);
  }
  EXPECT_NEAR(e.value(), 0.7, 1e-9);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.initialized());
  e.Add(5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, SmoothsSteps) {
  Ewma e(0.5);
  e.Add(0.0);
  e.Add(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.5);
  e.Add(1.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.75);
}

TEST(UtilizationIntegrator, BusyFraction) {
  UtilizationIntegrator u;
  u.AddBusy(Millis(300));
  EXPECT_NEAR(u.Sample(Millis(1000)), 0.3, 1e-9);
  // New window starts clean.
  EXPECT_NEAR(u.Sample(Millis(2000)), 0.0, 1e-9);
}

TEST(UtilizationIntegrator, ClampsToOne) {
  UtilizationIntegrator u;
  u.AddBusy(Millis(1500));
  EXPECT_DOUBLE_EQ(u.Sample(Millis(1000)), 1.0);
}

TEST(PercentileTracker, Percentiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) {
    t.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(t.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(t.Percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(t.Percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(t.Mean(), 50.5, 1e-9);
}

TEST(PercentileTracker, EmptyReturnsZero) {
  PercentileTracker t;
  EXPECT_DOUBLE_EQ(t.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 0.0);
}

TEST(TimeSeries, Buckets) {
  TimeSeries ts(Seconds(30.0));
  ts.Record(Seconds(0.0));
  ts.Record(Seconds(29.0));
  ts.Record(Seconds(30.0));
  ts.Record(Seconds(95.0));
  ASSERT_EQ(ts.buckets().size(), 4u);
  EXPECT_DOUBLE_EQ(ts.buckets()[0], 2.0);
  EXPECT_DOUBLE_EQ(ts.buckets()[1], 1.0);
  EXPECT_DOUBLE_EQ(ts.buckets()[2], 0.0);
  EXPECT_DOUBLE_EQ(ts.buckets()[3], 1.0);
}

TEST(TimeSeries, MovingAverage) {
  TimeSeries ts(Seconds(1.0));
  for (int i = 0; i < 5; ++i) {
    ts.Record(Seconds(static_cast<double>(i)), static_cast<double>(i));
  }
  const auto ma = ts.MovingAverage(3);
  ASSERT_EQ(ma.size(), 5u);
  EXPECT_DOUBLE_EQ(ma[2], 2.0);  // (1+2+3)/3
  EXPECT_DOUBLE_EQ(ma[0], 0.5);  // (0+1)/2 at the edge
}

// --- InlineCallback ----------------------------------------------------------

TEST(InlineCallback, InvokesAndPassesArguments) {
  InlineCallback<int(int, int), 16> add = [](int a, int b) { return a + b; };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineCallback, EmptyAndNullptrStates) {
  InlineCallback<void(), 16> cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_TRUE(cb == nullptr);
  cb = [] {};
  EXPECT_TRUE(cb != nullptr);
  cb = nullptr;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, MoveTransfersOwnershipAndEmptiesSource) {
  int calls = 0;
  InlineCallback<void(), 16> a = [&calls] { ++calls; };
  InlineCallback<void(), 16> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): asserting the contract
  b();
  EXPECT_EQ(calls, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(calls, 2);
}

TEST(InlineCallback, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    InlineCallback<void(), 32> cb = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
    InlineCallback<void(), 32> moved = std::move(cb);
    EXPECT_EQ(token.use_count(), 2);  // relocation, not duplication
    moved = nullptr;
    EXPECT_EQ(token.use_count(), 1);  // reset runs the capture's destructor
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, MutableCaptureStateSurvivesCalls) {
  InlineCallback<int(), 16> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);
  EXPECT_EQ(counter(), 3);
}

TEST(InlineCallback, SmallerCapacityNestsIntoLarger) {
  InlineCallback<void(bool), 32> small = [](bool) {};
  InlineCallback<void(bool), 96> big = std::move(small);
  big(true);
}

// --- OpenHashIndex -----------------------------------------------------------

// Find-or-insert `key -> slot` the way every caller does: one probe, then
// InsertAt into the bucket it returned. Returns false when already present.
bool InsertNew(OpenHashIndex& index, uint64_t key, uint32_t slot) {
  const OpenHashIndex::Lookup at = index.FindForInsert(key);
  if (at.slot != OpenHashIndex::kNotFound) {
    return false;
  }
  index.InsertAt(at, key, slot);
  return true;
}

TEST(OpenHashIndex, InsertFindErase) {
  OpenHashIndex index;
  EXPECT_EQ(index.Find(42), OpenHashIndex::kNotFound);
  EXPECT_TRUE(InsertNew(index, 42, 7));
  EXPECT_TRUE(InsertNew(index, 0, 9));  // key 0 is a legal packed key, not a sentinel
  EXPECT_FALSE(InsertNew(index, 42, 8));
  EXPECT_EQ(index.FindForInsert(42).slot, 7u);
  EXPECT_EQ(index.Find(42), 7u);
  EXPECT_EQ(index.Find(0), 9u);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Erase(42));
  EXPECT_FALSE(index.Erase(42));
  EXPECT_EQ(index.Find(42), OpenHashIndex::kNotFound);
  EXPECT_EQ(index.Find(0), 9u);
}

TEST(OpenHashIndex, MatchesReferenceMapUnderChurn) {
  // Randomized differential test against unordered_map: find-or-inserts,
  // erases, and lookups over a small key universe force long probe chains
  // and exercise backward-shift deletion. The live count climbs through
  // several doublings (16 -> 1024 buckets) before settling, so
  // FindForInsert's grow-then-probe runs across every growth boundary.
  OpenHashIndex index;
  std::unordered_map<uint64_t, uint32_t> reference;
  Rng rng(2024);
  size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.NextBelow(1024);
    // Insert-heavy first half (grows the table), balanced second half.
    const uint64_t op = rng.NextBelow(step < 10000 ? 4 : 3);
    if (op == 0 || op == 3) {
      const OpenHashIndex::Lookup at = index.FindForInsert(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(at.slot, OpenHashIndex::kNotFound) << "key " << key;
        const uint32_t slot = static_cast<uint32_t>(rng.NextBelow(1u << 20));
        index.InsertAt(at, key, slot);
        reference[key] = slot;
      } else {
        EXPECT_EQ(at.slot, it->second) << "key " << key;
      }
    } else if (op == 1) {
      EXPECT_EQ(index.Erase(key), reference.erase(key) > 0) << "key " << key;
    } else {
      auto it = reference.find(key);
      const uint32_t expect = it == reference.end() ? OpenHashIndex::kNotFound : it->second;
      EXPECT_EQ(index.Find(key), expect) << "key " << key;
    }
    EXPECT_EQ(index.size(), reference.size());
    peak = std::max(peak, reference.size());
  }
  EXPECT_GT(peak, 384u);  // past the 512-bucket table's 3/4 load: >= 6 growths
  for (const auto& [key, slot] : reference) {
    EXPECT_EQ(index.Find(key), slot);
  }
}

// --- SmallVec ----------------------------------------------------------------

TEST(SmallVec, InlineUntilCapacityThenSpills) {
  SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // first overflowing push moves the elements to the heap
  EXPECT_TRUE(v.spilled());
  for (int i = 0; i < 64; ++i) {
    v.push_back(5 + i);
  }
  ASSERT_EQ(v.size(), 69u);
  for (int i = 0; i < 69; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
}

TEST(SmallVec, MoveTransfersInlineAndSpilledStorage) {
  SmallVec<int, 4> inline_v{1, 2, 3};
  SmallVec<int, 4> moved_inline = std::move(inline_v);
  EXPECT_EQ(moved_inline.size(), 3u);
  EXPECT_EQ(moved_inline[2], 3);
  EXPECT_TRUE(inline_v.empty());  // NOLINT(bugprone-use-after-move): spec'd

  SmallVec<int, 2> spilled{1, 2, 3, 4, 5};
  ASSERT_TRUE(spilled.spilled());
  SmallVec<int, 2> moved_spill = std::move(spilled);
  EXPECT_TRUE(moved_spill.spilled());
  EXPECT_TRUE(spilled.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(spilled.spilled());
  ASSERT_EQ(moved_spill.size(), 5u);
  EXPECT_EQ(moved_spill[4], 5);
  // The source is reusable after being moved from.
  spilled.push_back(9);
  EXPECT_EQ(spilled[0], 9);
}

TEST(SmallVec, CopyIsDeepForSpilledStorage) {
  SmallVec<int, 2> a{10, 20, 30};
  SmallVec<int, 2> b = a;
  b.push_back(40);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(a, (SmallVec<int, 2>{10, 20, 30}));
  a = b;
  EXPECT_EQ(a, b);
}

TEST(SmallVec, SupportsMoveOnlyElements) {
  SmallVec<std::unique_ptr<int>, 2> v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(std::make_unique<int>(i));
  }
  SmallVec<std::unique_ptr<int>, 2> w = std::move(v);
  ASSERT_EQ(w.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(*w[static_cast<size_t>(i)], i);
  }
}

TEST(SmallVec, MoveSpillToExternalMemory) {
  SmallVec<uint64_t, 2> v{1, 2, 3, 4};
  ASSERT_TRUE(v.spilled());
  ASSERT_EQ(v.spill_bytes(), 4 * sizeof(uint64_t));
  alignas(std::max_align_t) unsigned char arena[64];
  v.MoveSpillTo(arena);
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v[3], 4u);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(&v[0]), arena);
  // A copy of an arena-backed vector owns its own storage again.
  SmallVec<uint64_t, 2> copy = v;
  EXPECT_NE(reinterpret_cast<unsigned char*>(&copy[0]), arena);
  EXPECT_EQ(copy, v);
  // Destroying the arena-backed original must not free the external block
  // (ASan would flag it; nothing further to assert here).
}

// --- Slab / SlabList ---------------------------------------------------------

TEST(Slab, RecyclesSlotsLifo) {
  Slab<int> slab;
  const uint32_t a = slab.Alloc();
  const uint32_t b = slab.Alloc();
  slab[a] = 1;
  slab[b] = 2;
  EXPECT_EQ(slab.slots(), 2u);
  slab.Free(a);
  EXPECT_EQ(slab.Alloc(), a);  // LIFO reuse, no growth
  EXPECT_EQ(slab.slots(), 2u);
  EXPECT_EQ(slab[b], 2);
}

TEST(SlabList, PushUnlinkAndWalk) {
  SlabList<int> list;
  const uint32_t a = list.Alloc();
  const uint32_t b = list.Alloc();
  const uint32_t c = list.Alloc();
  list[a] = 1;
  list[b] = 2;
  list[c] = 3;
  list.PushBack(a);
  list.PushBack(b);
  list.PushFront(c);  // c, a, b
  std::vector<int> forward;
  for (uint32_t s = list.head(); s != kNilSlot; s = list.next(s)) {
    forward.push_back(list[s]);
  }
  EXPECT_EQ(forward, (std::vector<int>{3, 1, 2}));
  std::vector<int> backward;
  for (uint32_t s = list.tail(); s != kNilSlot; s = list.prev(s)) {
    backward.push_back(list[s]);
  }
  EXPECT_EQ(backward, (std::vector<int>{2, 1, 3}));

  list.Unlink(a);  // c, b
  EXPECT_EQ(list.next(list.head()), b);
  list.Unlink(c);  // b alone: head == tail
  EXPECT_EQ(list.head(), b);
  EXPECT_EQ(list.tail(), b);
  list.Unlink(b);
  EXPECT_EQ(list.head(), kNilSlot);
  EXPECT_EQ(list.tail(), kNilSlot);
  list.Free(a);
  EXPECT_EQ(list.Alloc(), a);  // freed slot recycled
}

// Walks `list` head-to-tail and tail-to-head; checks both walks agree with
// `expect` (front..back), so every prev and next link is verified.
void ExpectOrder(const SlabList<int>& list, const std::vector<int>& expect) {
  std::vector<int> forward;
  for (uint32_t s = list.head(); s != kNilSlot; s = list.next(s)) {
    forward.push_back(list[s]);
  }
  EXPECT_EQ(forward, expect);
  std::vector<int> backward;
  for (uint32_t s = list.tail(); s != kNilSlot; s = list.prev(s)) {
    backward.push_back(list[s]);
  }
  EXPECT_EQ(backward, std::vector<int>(expect.rbegin(), expect.rend()));
}

TEST(SlabList, MoveRunToFront) {
  SlabList<int> list;
  std::vector<uint32_t> slot(5);
  for (int i = 0; i < 5; ++i) {
    slot[i] = list.Alloc();
    list[slot[i]] = i;
    list.PushBack(slot[i]);
  }
  ExpectOrder(list, {0, 1, 2, 3, 4});

  list.MoveRunToFront(slot[0], slot[1]);  // run already at the head: no-op
  ExpectOrder(list, {0, 1, 2, 3, 4});

  list.MoveRunToFront(slot[2], slot[3]);  // interior run
  ExpectOrder(list, {2, 3, 0, 1, 4});

  list.MoveRunToFront(slot[1], slot[4]);  // run ending at the tail
  ExpectOrder(list, {1, 4, 2, 3, 0});
  EXPECT_EQ(list.tail(), slot[0]);

  list.MoveRunToFront(slot[1], slot[0]);  // the whole list
  ExpectOrder(list, {1, 4, 2, 3, 0});

  list.MoveRunToFront(slot[0], slot[0]);  // single node from the tail
  ExpectOrder(list, {0, 1, 4, 2, 3});
  EXPECT_EQ(list.tail(), slot[3]);

  list.MoveRunToFront(slot[4], slot[4]);  // single interior node
  ExpectOrder(list, {4, 0, 1, 2, 3});

  // A one-node list: the node is head, tail and the whole run.
  SlabList<int> one;
  const uint32_t only = one.Alloc();
  one[only] = 7;
  one.PushFront(only);
  one.MoveRunToFront(only, only);
  ExpectOrder(one, {7});
}

TEST(SlabList, ChurnKeepsListConsistent) {
  // Differential against a std::vector model: random push/unlink/free.
  SlabList<uint64_t> list;
  std::vector<std::pair<uint32_t, uint64_t>> model;  // front..back
  Rng rng(7);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBelow(100);
    if (op < 50 || model.empty()) {
      const uint32_t slot = list.Alloc();
      const uint64_t value = rng.NextU64();
      list[slot] = value;
      if (rng.NextBool(0.5)) {
        list.PushFront(slot);
        model.insert(model.begin(), {slot, value});
      } else {
        list.PushBack(slot);
        model.emplace_back(slot, value);
      }
    } else {
      const size_t pick = rng.NextBelow(model.size());
      const uint32_t slot = model[pick].first;
      list.Unlink(slot);
      list.Free(slot);
      model.erase(model.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
  std::vector<uint64_t> got;
  for (uint32_t s = list.head(); s != kNilSlot; s = list.next(s)) {
    got.push_back(list[s]);
  }
  ASSERT_EQ(got.size(), model.size());
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(got[i], model[i].second);
  }
}

}  // namespace
}  // namespace tashkent
