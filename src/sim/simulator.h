// Discrete-event simulation kernel.
//
// A single-threaded event loop with an integer-microsecond clock. Events are
// ordered by (time, sequence number) so simultaneous events fire in the order
// they were scheduled, which makes runs deterministic. All higher layers
// (replicas, certifier, proxies, clients, balancer) are plain objects that
// schedule callbacks here.
//
// Hot-path layout (see docs/ARCHITECTURE.md, "Hot path & performance model"):
// event callbacks are InlineCallbacks stored in a free-listed slab
// (src/common/slab_list.h) — scheduling an event is a slab-slot pop plus a
// binary-heap push, with zero heap allocation once the slab and heap vectors
// have grown to the run's working size. EventIds are generation-tagged slot
// handles, so Cancel is O(1), double-cancel is detected, and a stale id from
// a recycled slot can never cancel the slot's new occupant. Cancellation
// stays lazy in the heap (the dead entry is skipped when popped), but the
// heap is compacted once dead entries outnumber live ones, so a cancel-heavy
// workload cannot bloat it.
//
// Heap micro-layout: the sort key (when, seq) is packed into one 64-bit
// integer — `when` in the high 40 bits (12.7 simulated days; exceeding it
// throws), a 24-bit sequence in the low bits — so each heap entry is 16
// bytes and a sift step is a single integer compare. The 24-bit sequence
// wraps by RENUMBERING: when 2^24 schedules have happened, live heap entries
// are re-assigned dense sequence numbers in their current firing order,
// which preserves the comparison outcome of every pair (same-tick order is
// relative, not absolute) and lets the counter restart. Renumbering also
// drops lazily-cancelled entries. tests/sim_test.cc crosses the boundary
// explicitly via the test-seam constructor.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/inline_callback.h"
#include "src/common/slab_list.h"
#include "src/common/units.h"

namespace tashkent {

class Simulator {
 public:
  // Per-event callback with inline capture storage (no heap). Hot payloads
  // (writesets, transaction continuations) are parked in their owners'
  // slabs, so event captures are small: the largest is the cluster
  // mutator's guarded verb (weak token + mutator + Verb, 64 bytes).
  using Callback = InlineCallback<void(), 96>;

  // Generation-tagged slab handle for cancellation: low 32 bits are
  // slot-index + 1, high 32 bits are the slot's generation at scheduling
  // time. A fired or cancelled event bumps the slot's generation, so a stale
  // id can never cancel the slot's next occupant.
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  // Sort-key layout: the uint64 key is (when << kSeqBits) | seq, leaving
  // 64 - kSeqBits = 40 bits for `when`.
  static constexpr int kSeqBits = 24;
  static constexpr uint64_t kSeqLimit = 1ull << kSeqBits;
  static constexpr SimTime kMaxTime = (1ll << (64 - kSeqBits)) - 1;

  // `seq_renumber_limit` is a test seam: lowering it forces the sequence
  // renumbering path to run after that many schedules, so tests can cross
  // the wrap boundary cheaply. Production uses the full 24-bit space.
  explicit Simulator(uint64_t seq_renumber_limit = kSeqLimit)
      : seq_limit_(seq_renumber_limit < 2 ? 2 : seq_renumber_limit) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `cb` to run at absolute time `when`; times in the past are
  // clamped to Now(). Throws std::overflow_error past kMaxTime (~12.7
  // simulated days — far beyond any campaign).
  EventId ScheduleAt(SimTime when, Callback cb);

  // Schedules `cb` to run `delay` after Now(); negative delays clamp to 0.
  EventId ScheduleAfter(SimDuration delay, Callback cb) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Cancels a pending event in O(1): the slab slot is freed immediately (the
  // capture's destructor runs now) and the heap entry is skipped when popped.
  // Returns false if the event already fired or was cancelled.
  bool Cancel(EventId id);

  // Runs events with time <= `end`, then advances the clock to `end`.
  void RunUntil(SimTime end);

  // Runs every pending event. Intended for tests; production runs are bounded.
  void RunAll();

  // Registers a callback every `period`, first firing at `start`. It keeps
  // firing until StopPeriodic is called with the returned id.
  uint64_t SchedulePeriodic(SimTime start, SimDuration period, Callback cb);
  void StopPeriodic(uint64_t periodic_id);

  // Live (scheduled and neither fired nor cancelled) events only; cancelled
  // entries still parked in the heap are not counted.
  size_t pending_events() const { return live_events_; }
  uint64_t executed_events() const { return executed_; }

  // Observability for the compaction policy (tests assert on these): total
  // heap entries vs. the lazily-cancelled ones awaiting a pop or a compaction.
  size_t heap_entries() const { return heap_.size(); }
  size_t cancelled_heap_entries() const { return cancelled_in_heap_; }
  // Sequence renumber passes performed (tests assert the wrap path ran).
  uint64_t seq_renumbers() const { return seq_renumbers_; }

 private:
  // Compaction threshold: below this heap size the dead entries are not worth
  // a rebuild (they drain through pops quickly anyway).
  static constexpr size_t kCompactMinHeap = 64;

  // 16-byte heap entry: `key` packs (when << kSeqBits) | seq, so the heap
  // comparator is one integer compare.
  struct HeapEntry {
    uint64_t key;
    uint32_t slot;
    uint32_t gen;

    SimTime when() const { return static_cast<SimTime>(key >> kSeqBits); }
  };
  // Ordering for std::*_heap (max-heap semantics): "a fires after b" puts the
  // earliest (when, seq) at the front.
  struct FiresAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      return a.key > b.key;
    }
  };

  struct EventRecord {
    Callback cb;
    uint32_t gen = 0;  // bumped on fire/cancel; matches live ids only
  };

  struct PeriodicTask {
    SimDuration period;
    Callback cb;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | (slot + 1);
  }
  static uint64_t MakeKey(SimTime when, uint64_t seq) {
    return (static_cast<uint64_t>(when) << kSeqBits) | seq;
  }

  // Runs events with time <= `limit` (the shared RunUntil/RunAll core).
  void RunEvents(SimTime limit);
  // Bumps the slot's generation and returns it to the free list.
  void ReleaseSlot(uint32_t slot);
  // Rebuilds the heap without dead entries once they outnumber live events.
  void MaybeCompactHeap();
  // Re-assigns dense sequence numbers to the live heap entries in firing
  // order (dropping dead ones), so the 24-bit counter can restart.
  void RenumberSequences();
  void PeriodicTick(uint64_t periodic_id);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t seq_limit_;
  uint64_t executed_ = 0;
  uint64_t seq_renumbers_ = 0;
  std::vector<HeapEntry> heap_;   // binary heap via std::push_heap/pop_heap
  Slab<EventRecord> slab_;        // event records; callbacks stored inline
  size_t live_events_ = 0;
  size_t cancelled_in_heap_ = 0;
  uint64_t next_periodic_id_ = 1;
  std::unordered_map<uint64_t, PeriodicTask> periodics_;
};

}  // namespace tashkent

#endif  // SRC_SIM_SIMULATOR_H_
