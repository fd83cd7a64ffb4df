// Unit tests for the discrete-event simulator and FIFO server.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
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

TEST(Simulator, PeriodicFiresEveryPeriod) {
  Simulator sim;
  int count = 0;
  sim.SchedulePeriodic(Millis(10), Millis(10), [&]() { ++count; });
  sim.RunUntil(Millis(55));
  EXPECT_EQ(count, 5);  // t=10..50
  sim.RunUntil(Millis(200));
  EXPECT_EQ(count, 20);  // t=10..200
}

TEST(Simulator, NonPositivePeriodThrows) {
  Simulator sim;
  int count = 0;
  // A zero period would re-fire at one tick forever; neither call may
  // register anything, so the clock never has to run.
  EXPECT_THROW(sim.SchedulePeriodic(Millis(10), 0, [&]() { ++count; }), std::invalid_argument);
  EXPECT_THROW(sim.SchedulePeriodic(Millis(10), -Millis(5), [&]() { ++count; }),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(count, 0);
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

TEST(Simulator, PeriodicStartedFromInsideItsOwnTick) {
  Simulator sim;
  int first_count = 0;
  int second_count = 0;
  // The registration grows the periodic registry while the registering
  // periodic's own tick is running.
  sim.SchedulePeriodic(Millis(10), Millis(10), [&]() {
    if (++first_count == 2) {
      sim.SchedulePeriodic(sim.Now() + Millis(5), Millis(50), [&]() { ++second_count; });
    }
  });
  sim.RunUntil(Millis(130));
  EXPECT_EQ(first_count, 13);  // t=10, 20, ..., 130: its cadence is unchanged
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

// --- differential kernel test -------------------------------------------------

// Drives the kernel with a seeded script and checks it against a std::map
// keyed by (fire time, schedule index): every firing must be the model's
// least key, at that time, and the live and executed counts must agree after
// every step. The script mixes lambda and Callback schedules (some with a
// non-trivial capture), same-tick bursts, schedules into the past, cancels
// from inside and outside callbacks of live, fired and stale recycled ids,
// and cancel storms; the low renumber limit makes sequence renumbering and
// heap compaction both run.
class KernelDifferential {
 public:
  explicit KernelDifferential(uint64_t seed) : sim_(/*seq_renumber_limit=*/512), rng_(seed) {}

  void Run(uint64_t budget) {
    budget_ = budget;
    for (int i = 0; i < 64; ++i) {
      Schedule(static_cast<SimTime>(rng_.NextBelow(100)));
    }
    while (!model_.empty()) {
      sim_.RunUntil(sim_.Now() + static_cast<SimDuration>(rng_.NextBelow(200)));
      ExpectCountsAgree();
      if (fired_ < budget_) {
        Act();
      }
    }
    sim_.RunAll();
  }

  void ExpectCountsAgree() {
    EXPECT_EQ(sim_.executed_events(), fired_);
    EXPECT_EQ(sim_.pending_events(), model_.size());
  }

  const Simulator& sim() const { return sim_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  uint64_t fired() const { return fired_; }
  uint64_t compactions() const { return compactions_; }
  uint64_t cancels_accepted() const { return cancels_accepted_; }
  uint64_t stale_cancels() const { return stale_cancels_; }
  long token_uses() const { return token_.use_count(); }

 private:
  void Schedule(SimTime when) {
    const uint64_t idx = ids_.size();
    const SimTime fire_at = std::max(when, sim_.Now());
    Simulator::EventId id = Simulator::kInvalidEvent;
    switch (rng_.NextBelow(4)) {
      case 0:
        id = sim_.ScheduleAt(when, [this, idx]() { Fired(idx); });
        break;
      case 1:
        id = sim_.ScheduleAt(when, Simulator::Callback([this, idx]() { Fired(idx); }));
        break;
      case 2:
        // A capture with a destructor: cancel and fire must each destroy it
        // exactly once (token_uses() returns to 1 at the end).
        id = sim_.ScheduleAfter(when - sim_.Now(), [this, idx, t = token_]() {
          (void)t;
          Fired(idx);
        });
        break;
      default: {
        Simulator::Callback cb([this, idx, t = token_]() {
          (void)t;
          Fired(idx);
        });
        id = sim_.ScheduleAfter(when - sim_.Now(), std::move(cb));
        break;
      }
    }
    ids_.push_back(id);
    fire_at_.push_back(fire_at);
    model_.emplace(std::make_pair(fire_at, idx), idx);
  }

  void Fired(uint64_t idx) {
    ++fired_;
    const auto least = model_.begin();
    if (least == model_.end() || least->second != idx || least->first.first != sim_.Now()) {
      if (first_mismatch_.empty()) {
        first_mismatch_ = "firing " + std::to_string(fired_) + ": kernel fired #" +
                          std::to_string(idx) + " at " + std::to_string(sim_.Now()) +
                          ", model expected " +
                          (least == model_.end() ? std::string("nothing")
                                                 : "#" + std::to_string(least->second) + " at " +
                                                       std::to_string(least->first.first));
      }
      model_.erase({fire_at_[idx], idx});
    } else {
      model_.erase(least);
    }
    ExpectCountsAgree();
    if (fired_ < budget_) {
      Act();
    }
  }

  void Act() {
    const SimTime now = sim_.Now();
    const uint64_t r = rng_.NextBelow(100);
    if (r < 60) {
      const uint64_t n = model_.size() < 120 ? 1 + rng_.NextBelow(3) : rng_.NextBelow(2);
      for (uint64_t i = 0; i < n; ++i) {
        Schedule(now + static_cast<SimTime>(rng_.NextBelow(300)));
      }
    } else if (r < 70) {
      // Same-tick burst, at this tick or a later one.
      const SimTime at = now + static_cast<SimTime>(rng_.NextBelow(2) * rng_.NextBelow(50));
      const uint64_t n = 2 + rng_.NextBelow(7);
      for (uint64_t i = 0; i < n; ++i) {
        Schedule(at);
      }
    } else if (r < 75) {
      Schedule(now - static_cast<SimTime>(rng_.NextBelow(20)));  // clamps to now
    }
    if (rng_.NextBelow(100) < 40) {
      CancelOne();
    }
    if (rng_.NextBelow(1000) < 4) {
      // Cancel storm: dead entries outnumber live ones, so the heap compacts.
      std::vector<uint64_t> live;
      for (const auto& kv : model_) {
        live.push_back(kv.second);
      }
      for (uint64_t idx : live) {
        if (rng_.NextBelow(10) < 8) {
          Cancel(idx);
        }
      }
    }
  }

  void CancelOne() {
    const uint64_t n = ids_.size();
    // Mostly recent ids (often still live), sometimes any id ever issued
    // (mostly fired or cancelled, their slots recycled since).
    const uint64_t idx = rng_.NextBelow(2) == 0 ? n - 1 - rng_.NextBelow(std::min<uint64_t>(n, 48))
                                                : rng_.NextBelow(n);
    Cancel(idx);
  }

  void Cancel(uint64_t idx) {
    const bool live = model_.erase({fire_at_[idx], idx}) == 1;
    const size_t heap_before = sim_.heap_entries();
    const bool cancelled = sim_.Cancel(ids_[idx]);
    EXPECT_EQ(cancelled, live) << "cancel of #" << idx;
    if (sim_.heap_entries() < heap_before) {
      ++compactions_;
    }
    cancels_accepted_ += cancelled ? 1 : 0;
    stale_cancels_ += live ? 0 : 1;
    ExpectCountsAgree();
  }

  Simulator sim_;
  Rng rng_;
  uint64_t budget_ = 0;
  std::map<std::pair<SimTime, uint64_t>, uint64_t> model_;  // (when, idx) -> idx
  std::vector<Simulator::EventId> ids_;                      // by schedule index
  std::vector<SimTime> fire_at_;                             // by schedule index
  std::shared_ptr<int> token_ = std::make_shared<int>(0);
  std::string first_mismatch_;
  uint64_t fired_ = 0;
  uint64_t compactions_ = 0;
  uint64_t cancels_accepted_ = 0;
  uint64_t stale_cancels_ = 0;
};

TEST(Simulator, DifferentialAgainstOrderedMapModel) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KernelDifferential d(seed);
    d.Run(/*budget=*/20000);
    EXPECT_EQ(d.first_mismatch(), "");
    EXPECT_GE(d.fired(), 20000u);
    d.ExpectCountsAgree();
    EXPECT_EQ(d.sim().pending_events(), 0u);
    // Every path of the script ran.
    EXPECT_GT(d.sim().seq_renumbers(), 0u);
    EXPECT_GT(d.compactions(), 0u);
    EXPECT_GT(d.cancels_accepted(), 0u);
    EXPECT_GT(d.stale_cancels(), 0u);
    // Each non-trivial capture was destroyed: on firing or on cancel.
    EXPECT_EQ(d.token_uses(), 1);
  }
}

TEST(FifoServer, MixedCompletionsSerializeInFifoOrder) {
  Simulator sim;
  FifoServer server(&sim, "disk");
  std::vector<int> order;
  std::vector<SimTime> finished_at;
  std::vector<SimTime> expect_at;
  std::vector<int> expect_order;
  SimTime end = 0;
  // 40 jobs overflow the ring's first 8 slots several times, so jobs are
  // also built in slots a pop left holding a moved-from completion.
  for (int i = 0; i < 40; ++i) {
    const SimDuration service = Millis(1 + i % 4);
    end += service;
    auto record = [&, i]() {
      order.push_back(i);
      finished_at.push_back(sim.Now());
    };
    switch (i % 3) {
      case 0:
        server.Submit(service, record);  // lambda, built in the ring slot
        break;
      case 1:
        server.Submit(service, FifoServer::Done(record));  // a Done, moved in
        break;
      default:
        server.Submit(service, nullptr);  // no completion, as Replica::FlushRound
        continue;
    }
    expect_order.push_back(i);
    expect_at.push_back(end);
  }
  sim.RunAll();
  EXPECT_EQ(order, expect_order);
  EXPECT_EQ(finished_at, expect_at);
  EXPECT_EQ(server.jobs_completed(), 40u);
  EXPECT_EQ(server.total_busy_time(), end);
  EXPECT_EQ(sim.Now(), end);
}

}  // namespace
}  // namespace tashkent
