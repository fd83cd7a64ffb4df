// Unit tests for the discrete-event simulator and FIFO server.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/fifo_server.h"
#include "src/sim/simulator.h"

namespace tashkent {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Millis(30), [&]() { order.push_back(3); });
  sim.ScheduleAt(Millis(10), [&]() { order.push_back(1); });
  sim.ScheduleAt(Millis(20), [&]() { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Millis(5), [&order, i]() { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(Millis(10), [&]() { ++fired; });
  sim.ScheduleAt(Millis(100), [&]() { ++fired; });
  sim.RunUntil(Millis(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Millis(50));
  sim.RunUntil(Millis(200));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAfterFromCallback) {
  Simulator sim;
  SimTime second_fire = 0;
  sim.ScheduleAt(Millis(10), [&]() {
    sim.ScheduleAfter(Millis(5), [&]() { second_fire = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(second_fire, Millis(15));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.ScheduleAt(Millis(10), [&]() { ++fired; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // already cancelled
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.RunUntil(Millis(100));
  SimTime fired_at = -1;
  sim.ScheduleAt(Millis(50), [&]() { fired_at = sim.Now(); });
  sim.RunAll();
  EXPECT_EQ(fired_at, Millis(100));
}

TEST(Simulator, PeriodicFiresUntilStopped) {
  Simulator sim;
  int count = 0;
  const uint64_t pid = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() { ++count; });
  sim.RunUntil(Millis(55));
  EXPECT_EQ(count, 5);  // t=10..50
  sim.StopPeriodic(pid);
  sim.RunUntil(Millis(200));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicCanStopItself) {
  Simulator sim;
  int count = 0;
  uint64_t pid = 0;
  pid = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() {
    if (++count == 3) {
      sim.StopPeriodic(pid);
    }
  });
  sim.RunUntil(Seconds(10.0));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.ScheduleAt(Millis(10), [&]() { ++fired; });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(id));  // already fired: generation was bumped
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, StaleIdFromRecycledSlotDoesNotCancelNewOccupant) {
  Simulator sim;
  int first = 0;
  int second = 0;
  // Fire-then-reschedule: after e1 fires, its slab slot is on the free list
  // and e2 recycles it. The stale e1 id must not cancel e2.
  const auto e1 = sim.ScheduleAt(Millis(10), [&]() { ++first; });
  sim.RunUntil(Millis(20));
  const auto e2 = sim.ScheduleAt(Millis(30), [&]() { ++second; });
  EXPECT_NE(e1, e2);  // generation tag differs even though the slot matches
  EXPECT_FALSE(sim.Cancel(e1));
  sim.RunAll();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);

  // Cancel-then-reschedule recycles the slot the same way.
  int third = 0;
  const auto e3 = sim.ScheduleAt(Millis(50), [&]() {});
  EXPECT_TRUE(sim.Cancel(e3));
  const auto e4 = sim.ScheduleAt(Millis(60), [&]() { ++third; });
  EXPECT_FALSE(sim.Cancel(e3));  // stale: must not hit e4's slot
  sim.RunAll();
  EXPECT_EQ(third, 1);
  EXPECT_NE(e3, e4);
}

TEST(Simulator, ScheduleAtInThePastDuringCallbackClampsToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleAt(Millis(10), [&]() {
    // Scheduling "for the past" from inside a callback must fire at Now(),
    // after the current callback returns, never before.
    sim.ScheduleAt(Millis(1), [&]() { fired_at = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(Simulator, PendingEventsCountsLiveEventsOnly) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.ScheduleAt(Millis(10 + i), []() {}));
  }
  EXPECT_EQ(sim.pending_events(), 10u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  // Lazily-cancelled entries may still sit in the heap, but they are dead:
  // pending_events reflects live events only.
  EXPECT_EQ(sim.pending_events(), 6u);
  size_t during = 999;
  sim.ScheduleAt(Millis(5), [&]() { during = sim.pending_events(); });
  sim.RunUntil(Millis(5));
  EXPECT_EQ(during, 6u);  // the firing event itself is no longer pending
  sim.RunAll();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, HeapCompactionDropsCancelledEntries) {
  Simulator sim;
  std::vector<Simulator::EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(sim.ScheduleAt(Millis(10 + i), [&fired, i]() { fired.push_back(i); }));
  }
  // Cancel three quarters: once dead entries outnumber live ones the heap is
  // rebuilt without them instead of carrying them all until popped.
  for (int i = 0; i < 150; ++i) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(sim.pending_events(), 50u);
  // At least one compaction fired (the heap would hold all 200 entries
  // otherwise), and the live count always equals heap minus dead entries.
  EXPECT_LT(sim.heap_entries(), 200u);
  EXPECT_EQ(sim.heap_entries() - sim.cancelled_heap_entries(), 50u);
  sim.RunAll();
  ASSERT_EQ(fired.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], 150 + i);  // survivors fire in order
  }
}

TEST(Simulator, CancelFromInsideCallback) {
  Simulator sim;
  int fired = 0;
  const auto victim = sim.ScheduleAt(Millis(20), [&]() { ++fired; });
  sim.ScheduleAt(Millis(10), [&]() { EXPECT_TRUE(sim.Cancel(victim)); });
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, PeriodicStopsAnotherPeriodicMidTick) {
  Simulator sim;
  int a_count = 0;
  int b_count = 0;
  uint64_t b = 0;
  sim.SchedulePeriodic(Millis(10), Millis(10), [&]() {
    if (++a_count == 2) {
      sim.StopPeriodic(b);
    }
  });
  b = sim.SchedulePeriodic(Millis(11), Millis(10), [&]() { ++b_count; });
  sim.RunUntil(Millis(100));
  EXPECT_EQ(b_count, 1);  // b fired at t=11 only; stopped during a's t=20 tick
  EXPECT_GE(a_count, 5);
}

TEST(Simulator, PeriodicRestartedFromInsideItsOwnTick) {
  Simulator sim;
  int first_count = 0;
  int second_count = 0;
  uint64_t pid = 0;
  pid = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() {
    if (++first_count == 2) {
      sim.StopPeriodic(pid);
      sim.SchedulePeriodic(sim.Now() + Millis(5), Millis(50), [&]() { ++second_count; });
    }
  });
  sim.RunUntil(Millis(130));
  EXPECT_EQ(first_count, 2);   // t=10, t=20, then stopped itself
  EXPECT_EQ(second_count, 3);  // t=25, 75, 125
}

TEST(Simulator, PeriodicStartedFromAnotherPeriodicsTickKeepsBothCadences) {
  Simulator sim;
  std::vector<SimTime> outer;
  std::vector<SimTime> inner;
  // The inner registration grows the periodic registry while the outer tick
  // is running, so the outer entry must be found again after its callback.
  sim.SchedulePeriodic(Millis(10), Millis(10), [&]() {
    outer.push_back(sim.Now());
    if (outer.size() == 2) {
      sim.SchedulePeriodic(sim.Now() + Millis(3), Millis(7),
                           [&]() { inner.push_back(sim.Now()); });
    }
  });
  sim.RunUntil(Millis(100));
  ASSERT_EQ(outer.size(), 10u);  // t=10, 20, ..., 100
  for (size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(outer[i], Millis(10) * static_cast<SimDuration>(i + 1));
  }
  ASSERT_EQ(inner.size(), 12u);  // t=23, 30, ..., 100
  for (size_t i = 0; i < inner.size(); ++i) {
    EXPECT_EQ(inner[i], Millis(23) + Millis(7) * static_cast<SimDuration>(i));
  }
}

TEST(Simulator, StopPeriodicOnUnknownOrStoppedIdDoesNothing) {
  Simulator sim;
  sim.StopPeriodic(0);
  sim.StopPeriodic(7);  // never issued
  int kept = 0;
  int stopped = 0;
  const uint64_t keep = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() { ++kept; });
  const uint64_t stop = sim.SchedulePeriodic(Millis(10), Millis(10), [&]() { ++stopped; });
  sim.RunUntil(Millis(25));
  sim.StopPeriodic(stop);
  sim.StopPeriodic(stop);      // already stopped
  sim.StopPeriodic(stop + 1);  // one past the last issued id
  sim.RunUntil(Millis(55));
  EXPECT_EQ(kept, 5);     // t=10..50, untouched by the no-op stops
  EXPECT_EQ(stopped, 2);  // t=10, 20
  sim.StopPeriodic(keep);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(kept, 5);
}

TEST(Simulator, SlabSlotsAreRecycledAcrossManyCycles) {
  Simulator sim;
  uint64_t fired = 0;
  // Schedule/cancel/fire churn: every surviving event reschedules itself, so
  // the slab free list is exercised thousands of times. The kernel must keep
  // counts exact throughout.
  for (int round = 0; round < 1000; ++round) {
    const auto keep = sim.ScheduleAfter(Millis(1), [&]() { ++fired; });
    const auto drop = sim.ScheduleAfter(Millis(2), [&]() { ++fired; });
    EXPECT_TRUE(sim.Cancel(drop));
    (void)keep;
    sim.RunUntil(sim.Now() + Millis(5));
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  EXPECT_EQ(fired, 1000u);
  EXPECT_EQ(sim.executed_events(), 1000u);
}

TEST(FifoServer, SerializesJobs) {
  Simulator sim;
  FifoServer server(&sim, "disk");
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    server.Submit(Millis(10), [&]() { completions.push_back(sim.Now()); });
  }
  sim.RunAll();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Millis(10));
  EXPECT_EQ(completions[1], Millis(20));
  EXPECT_EQ(completions[2], Millis(30));
}

TEST(FifoServer, BackgroundYieldsToForeground) {
  Simulator sim;
  FifoServer server(&sim, "disk");
  std::vector<char> order;
  // Occupy the server, then queue one background and one foreground job; the
  // foreground job must run first even though it arrived later.
  server.Submit(Millis(10), [&]() { order.push_back('x'); });
  server.Submit(Millis(10), [&]() { order.push_back('b'); }, JobPriority::kBackground);
  server.Submit(Millis(10), [&]() { order.push_back('f'); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<char>{'x', 'f', 'b'}));
}

TEST(FifoServer, TracksBusyTimeAndUtilization) {
  Simulator sim;
  FifoServer server(&sim, "cpu");
  server.Submit(Millis(250), nullptr);
  sim.RunUntil(Seconds(1.0));
  EXPECT_NEAR(server.SampleUtilization(), 0.25, 1e-9);
  EXPECT_EQ(server.total_busy_time(), Millis(250));
  EXPECT_EQ(server.jobs_completed(), 1u);
}

TEST(FifoServer, CompletionCanSubmitMoreWork) {
  Simulator sim;
  FifoServer server(&sim, "cpu");
  SimTime done_at = 0;
  server.Submit(Millis(5), [&]() {
    server.Submit(Millis(7), [&]() { done_at = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(done_at, Millis(12));
}

TEST(FifoServer, QueueLengthCountsWaitingAndRunning) {
  Simulator sim;
  FifoServer server(&sim, "disk");
  server.Submit(Millis(10), nullptr);
  server.Submit(Millis(10), nullptr);
  server.Submit(Millis(10), nullptr);
  EXPECT_EQ(server.queue_length(), 3u);
  sim.RunUntil(Millis(15));
  EXPECT_EQ(server.queue_length(), 2u);
  sim.RunAll();
  EXPECT_EQ(server.queue_length(), 0u);
}

// --- packed heap key ---------------------------------------------------------

// The (when, seq) sort key is packed into one 64-bit integer with a 24-bit
// sequence that wraps by renumbering live entries. Crossing the wrap must
// preserve ordering exactly: same-tick events stay FIFO across the boundary.
TEST(Simulator, SequenceRenumberPreservesSameTickFifo) {
  // Seam: renumber once 16 sequence numbers are consumed; each round keeps
  // ~12 events live, so the wrap path runs many times across the rounds.
  Simulator sim(/*seq_renumber_limit=*/16);
  std::vector<int> order;
  for (int round = 0; round < 12; ++round) {
    const SimTime base = Millis(10 * round);
    // Ten same-tick events whose schedule order must survive renumbering,
    // plus two decoys that stay pending across the next renumber passes.
    for (int i = 0; i < 10; ++i) {
      sim.ScheduleAt(base + Millis(5), [&order, i]() { order.push_back(i); });
    }
    sim.ScheduleAt(base + Millis(9), [&order]() { order.push_back(100); });
    sim.ScheduleAt(base + Millis(9), [&order]() { order.push_back(101); });
    sim.RunUntil(base + Millis(6));
    // The ten same-tick events fired in schedule order.
    ASSERT_GE(order.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(order[order.size() - 10 + static_cast<size_t>(i)], i) << "round " << round;
    }
  }
  sim.RunAll();
  EXPECT_GT(sim.seq_renumbers(), 3u);
  // The pending decoys drained in order too.
  EXPECT_EQ(order[order.size() - 2], 100);
  EXPECT_EQ(order[order.size() - 1], 101);
}

TEST(Simulator, SequenceRenumberDropsCancelledEntriesAndKeepsCancelWorking) {
  Simulator sim(/*seq_renumber_limit=*/32);
  std::vector<int> order;
  std::vector<Simulator::EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(sim.ScheduleAt(Millis(2), [&order, i]() { order.push_back(i); }));
  }
  // Cancel every other event, then schedule enough decoys to push the
  // sequence counter across the renumber limit while they are all pending.
  for (int i = 0; i < 20; i += 2) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
    EXPECT_FALSE(sim.Cancel(ids[static_cast<size_t>(i)]));  // double-cancel detected
  }
  for (int i = 0; i < 14; ++i) {
    sim.ScheduleAt(Millis(3), [&order, i]() { order.push_back(100 + i); });
  }
  EXPECT_GT(sim.seq_renumbers(), 0u);
  // The renumber pass swept the lazily-cancelled heap entries.
  EXPECT_EQ(sim.cancelled_heap_entries(), 0u);
  // Cancelling a survivor after the renumber still works; its stale id does
  // not resurrect.
  EXPECT_TRUE(sim.Cancel(ids[1]));
  EXPECT_FALSE(sim.Cancel(ids[1]));
  sim.RunAll();
  std::vector<int> expect;
  for (int i = 3; i < 20; i += 2) {
    expect.push_back(i);
  }
  for (int i = 0; i < 14; ++i) {
    expect.push_back(100 + i);
  }
  EXPECT_EQ(order, expect);
}

TEST(Simulator, SchedulingPastPackedTimeRangeThrows) {
  Simulator sim;
  EXPECT_THROW(sim.ScheduleAt(Simulator::kMaxTime + 1, []() {}), std::overflow_error);
  // The documented limit itself is schedulable (~12.7 simulated days).
  EXPECT_NE(sim.ScheduleAt(Simulator::kMaxTime, []() {}), Simulator::kInvalidEvent);
}

}  // namespace
}  // namespace tashkent
