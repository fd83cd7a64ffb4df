// Stress tests for ParallelFor (src/common/worker_pool.cc), written to be
// run under ThreadSanitizer (scripts/ci.sh builds a -fsanitize=thread
// configuration and executes this binary in it). The plain build runs them
// too — they are valid (if less interesting) without TSan.
//
// What they hammer:
//   * the atomic work-distribution counter under many threads and many
//     more items than threads (contended fetch_add claims);
//   * the join path: every fn(i) must happen-before ParallelFor's return,
//     which TSan checks via the writes each item makes to its result slot;
//   * back-to-back pools (spawn/join churn) and the jobs >= count clamp;
//   * nested sequential calls from a worker item (pool inside an item is
//     not supported, but a jobs==1 inline call is).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/common/worker_pool.h"

namespace tashkent {
namespace {

TEST(WorkerPoolStress, EveryIndexRunsExactlyOnceUnderContention) {
  // Many more items than threads, tiny bodies: maximizes pressure on the
  // claim counter. Each slot is written exactly once, so any double-claim
  // shows up as a count mismatch and any missed join as a TSan race.
  const size_t kItems = 100000;
  const int kJobs = 8;
  std::vector<uint8_t> hit(kItems, 0);
  std::atomic<uint64_t> total{0};
  ParallelFor(kJobs, kItems, [&](size_t i) {
    hit[i] = 1;
    total.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), size_t{0}), kItems);
  EXPECT_EQ(total.load(), uint64_t{kItems} * (kItems - 1) / 2);
}

TEST(WorkerPoolStress, ResultsVisibleAfterReturnWithoutAtomics) {
  // The join must publish plain (non-atomic) writes made by the items; the
  // campaign runner depends on this for its per-cell result slots. Under
  // TSan, a broken join surfaces as a data race on `out`.
  const size_t kItems = 4096;
  for (int round = 0; round < 50; ++round) {  // spawn/join churn
    std::vector<uint64_t> out(kItems, 0);
    ParallelFor(4, kItems, [&](size_t i) { out[i] = i * i; });
    EXPECT_EQ(out[kItems - 1], (kItems - 1) * (kItems - 1));
    EXPECT_EQ(out[round], static_cast<uint64_t>(round) * round);
  }
}

TEST(WorkerPoolStress, MoreJobsThanItemsClampsCleanly) {
  std::atomic<int> runs{0};
  ParallelFor(64, 3, [&](size_t) { runs.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(runs.load(), 3);
  // Zero items must be a no-op, not a hang.
  ParallelFor(8, 0, [&](size_t) { FAIL() << "called for empty range"; });
}

TEST(WorkerPoolStress, InlineModeRunsInIndexOrderOnCaller) {
  // jobs <= 1 is the determinism baseline: strict index order, caller's
  // thread, no threads spawned.
  std::vector<size_t> order;
  ParallelFor(1, 100, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(WorkerPoolStress, WorkerItemsMayRunNestedInlineLoops) {
  // A jobs==1 ParallelFor inside worker items must not deadlock or race the
  // outer pool's counter.
  const size_t kOuter = 256;
  std::vector<uint64_t> sums(kOuter, 0);
  ParallelFor(8, kOuter, [&](size_t i) {
    ParallelFor(1, 32, [&](size_t j) { sums[i] += i * 32 + j; });
  });
  for (size_t i = 0; i < kOuter; ++i) {
    const uint64_t base = static_cast<uint64_t>(i) * 32;
    EXPECT_EQ(sums[i], 32 * base + 31 * 32 / 2);
  }
}

TEST(WorkerPoolStress, ContendedCompletionWithUnevenItemCosts) {
  // Uneven bodies skew which worker reaches the completion path last; loop
  // it so every worker gets turns at being the finisher.
  for (int round = 0; round < 25; ++round) {
    std::atomic<uint64_t> sum{0};
    ParallelFor(8, 64, [&](size_t i) {
      volatile uint64_t spin = 0;
      for (size_t k = 0; k < (i % 7) * 1000; ++k) {
        spin += k;
      }
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 65u / 2);
  }
}

}  // namespace
}  // namespace tashkent
