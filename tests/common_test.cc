// Unit tests for src/common: units, RNG, statistics accumulators, the inline
// callback, the open-addressing index, the small vector, and the slab-list
// helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/common/inline_callback.h"
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

// The tracker against the obvious reference: a vector of ToSeconds() values,
// summed in insertion order and sorted for the nearest-rank interpolation.
// Bit-equal, including ties, samples spread over several storage blocks, and
// reuse of one tracker after Reset().
TEST(PercentileTracker, MatchesSortedDoubleReference) {
  Rng rng(20260601);
  PercentileTracker t;
  // The last pass reuses the blocks the 100,000-sample pass filled.
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{2}, size_t{20}, size_t{100000}, size_t{20}}) {
    t.Reset();
    std::vector<double> ref;
    // Few distinct values for the small sizes, so ties are certain; a long
    // tail among them for the large one.
    const uint64_t distinct = n <= 20 ? 5 : 20000;
    for (size_t i = 0; i < n; ++i) {
      SimDuration d = Micros(static_cast<int64_t>(rng.NextBelow(distinct)) + 1);
      if (i % 97 == 0) {
        d += Millis(static_cast<int64_t>(rng.NextBelow(3000)));
      }
      t.Add(d);
      ref.push_back(ToSeconds(d));
    }
    ASSERT_EQ(t.count(), n);
    double sum = 0.0;
    for (const double x : ref) {
      sum += x;
    }
    const double mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
    std::sort(ref.begin(), ref.end());
    for (const double q : {0.0, 0.5, 0.95, 1.0}) {
      double expected = 0.0;
      if (n > 0) {
        const double pos = q * static_cast<double>(n - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, n - 1);
        const double frac = pos - static_cast<double>(lo);
        expected = ref[lo] * (1.0 - frac) + ref[hi] * frac;
      }
      EXPECT_EQ(t.Percentile(q), expected) << "n=" << n << " q=" << q;
      // Selection reorders the samples; the mean does not depend on it.
      EXPECT_EQ(t.Mean(), mean) << "n=" << n << " q=" << q;
    }
  }
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

TEST(InlineCallback, EmplaceReplacesInPlace) {
  auto old_token = std::make_shared<int>(1);
  auto new_token = std::make_shared<int>(2);
  int seen = 0;
  InlineCallback<void(), 32> cb = [old_token, &seen] { seen = *old_token; };
  // A callable is built in place; the one it replaces is destroyed first.
  cb.Emplace([new_token, &seen] { seen = *new_token; });
  EXPECT_EQ(old_token.use_count(), 1);
  EXPECT_EQ(new_token.use_count(), 2);
  cb();
  EXPECT_EQ(seen, 2);
  // An InlineCallback of the same type is moved in, not wrapped.
  InlineCallback<void(), 32> other = [&seen] { seen = 3; };
  cb.Emplace(std::move(other));
  EXPECT_FALSE(static_cast<bool>(other));  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(new_token.use_count(), 1);
  cb();
  EXPECT_EQ(seen, 3);
  cb.Emplace(nullptr);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, SmallerCapacityNestsIntoLarger) {
  InlineCallback<void(bool), 32> small = [](bool) {};
  InlineCallback<void(bool), 96> big = std::move(small);
  big(true);
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

// --- ListOps over payload-free links -----------------------------------------

// Walks the list both ways over bare links; checks both walks agree with
// `expect` (slots, front..back).
void ExpectLinkOrder(const ListOps& list, const std::vector<ListLink>& links,
                     const std::vector<uint32_t>& expect) {
  std::vector<uint32_t> forward;
  for (uint32_t s = list.head(); s != kNilSlot; s = links[s].next) {
    forward.push_back(s);
  }
  EXPECT_EQ(forward, expect);
  std::vector<uint32_t> backward;
  for (uint32_t s = list.tail(); s != kNilSlot; s = links[s].prev) {
    backward.push_back(s);
  }
  EXPECT_EQ(backward, std::vector<uint32_t>(expect.rbegin(), expect.rend()));
}

TEST(ListOps, MoveRunsOverBareLinks) {
  static_assert(sizeof(ListLink) == 8, "a payload-free node is its two links");
  std::vector<ListLink> links(6);
  ListOps list;
  for (uint32_t s = 0; s < 5; ++s) {
    list.PushBack(links, s);
  }
  ExpectLinkOrder(list, links, {0, 1, 2, 3, 4});

  list.MoveRunToFront(links, 0, 2);  // run already at the head: no-op
  ExpectLinkOrder(list, links, {0, 1, 2, 3, 4});

  list.MoveRunToFront(links, 3, 4);  // run ending at the tail
  ExpectLinkOrder(list, links, {3, 4, 0, 1, 2});
  EXPECT_EQ(list.tail(), 2u);

  list.MoveRunToFront(links, 1, 2);  // again, the tail moves to the run's left
  ExpectLinkOrder(list, links, {1, 2, 3, 4, 0});
  EXPECT_EQ(list.tail(), 0u);

  list.PushFront(links, 5);  // a slot never linked before
  ExpectLinkOrder(list, links, {5, 1, 2, 3, 4, 0});
}

TEST(ListOps, UnlinkOnlyNodeThenRelink) {
  std::vector<ListLink> links(3);
  ListOps list;
  list.PushFront(links, 1);
  ExpectLinkOrder(list, links, {1});
  list.MoveRunToFront(links, 1, 1);  // the only node is head, tail and run
  ExpectLinkOrder(list, links, {1});

  list.Unlink(links, 1);  // the only node: the list is empty again
  EXPECT_EQ(list.head(), kNilSlot);
  EXPECT_EQ(list.tail(), kNilSlot);

  // An unlinked slot relinks at either end with fresh links.
  list.PushBack(links, 0);
  list.PushFront(links, 1);
  list.PushBack(links, 2);
  ExpectLinkOrder(list, links, {1, 0, 2});
  list.Unlink(links, 0);
  ExpectLinkOrder(list, links, {1, 2});
  list.PushFront(links, 0);
  ExpectLinkOrder(list, links, {0, 1, 2});
  list.Unlink(links, 2);  // the tail
  list.PushBack(links, 2);
  ExpectLinkOrder(list, links, {0, 1, 2});
  list.Clear();
  EXPECT_EQ(list.head(), kNilSlot);
  EXPECT_EQ(list.tail(), kNilSlot);
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
