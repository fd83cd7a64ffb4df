// Discrete-event simulation kernel.
//
// A single-threaded event loop with an integer-microsecond clock. Events are
// ordered by (time, sequence number) so simultaneous events fire in the order
// they were scheduled, which makes runs deterministic. All higher layers
// (replicas, certifier, proxies, clients, balancer) are plain objects that
// schedule callbacks here.
//
// Hot-path layout (see docs/ARCHITECTURE.md, "Hot path & performance model"):
// each pending event is a record in a free-listed slab
// (src/common/slab_list.h), holding an InlineCallback with 96 bytes of
// capture storage and the slot's 32-bit generation, plus a 16-byte entry in
// a 4-ary min-heap. Scheduling an event is a slab-slot pop, the caller's
// callable constructed in place in that record, and a 4-ary-heap push, with
// zero heap allocation once the slab and heap vectors have grown to the
// run's working size. EventIds are generation-tagged slot handles, so
// Cancel is O(1), double-cancel is detected, and a stale id from a recycled
// slot can never cancel the slot's new occupant. Cancellation stays lazy in
// the heap (the dead entry is skipped when popped), but the heap is
// compacted once dead entries outnumber live ones, so a cancel-heavy
// workload cannot bloat it.
//
// Heap micro-layout: the sort key (when, seq) is packed into one 64-bit
// integer — `when` in the high 40 bits (12.7 simulated days; exceeding it
// throws), a 24-bit sequence in the low bits — so each heap entry is 16
// bytes and a sift step is a single integer compare. The heap is 4-ary:
// node i's children are 4i+1..4i+4, 64 adjacent bytes, so it is half as
// deep as a binary heap. A pop walks the root's hole down to a leaf, each
// step picking the least of four children with conditional moves rather
// than branches, then sifts the former last entry up into it (Floyd's
// method: that entry usually belongs near the bottom). The 24-bit sequence
// wraps by RENUMBERING: when 2^24 schedules have happened, live heap entries
// are re-assigned dense sequence numbers in their current firing order,
// which preserves the comparison outcome of every pair (same-tick order is
// relative, not absolute) and lets the counter restart. Renumbering also
// drops lazily-cancelled entries. Renumbering and compaction leave the
// entries sorted, and a sorted array is a valid 4-ary heap. Keys are unique,
// so the pop order is the same as any other correct priority queue's.
// tests/sim_test.cc crosses the boundary explicitly via the test-seam
// constructor, and checks the kernel against a std::map model.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
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
  // slabs, so event captures are small: the largest is Cluster::At's
  // scheduled verb (cluster + Verb, 48 bytes). The capacity stays at 96
  // because 48 measured slower: tpcw-order-uf-churn's sim_txn_per_s fell
  // 2.5% in 10 of 14 perfbench pairs (4-vCPU Xeon, g++ 12.2,
  // RelWithDebInfo).
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
  // simulated days — far beyond any campaign). `cb` is a lambda (or any
  // callable a Callback can hold), constructed directly in the event's slab
  // record, or a Callback, moved in.
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& cb) {
    const uint32_t slot = slab_.Alloc();
    slab_[slot].cb.Emplace(std::forward<F>(cb));
    return Enqueue(when, slot);
  }

  // Schedules `cb` to run `delay` after Now(); negative delays clamp to 0.
  template <typename F>
  EventId ScheduleAfter(SimDuration delay, F&& cb) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::forward<F>(cb));
  }

  // Cancels a pending event in O(1): the slab slot is freed immediately (the
  // capture's destructor runs now) and the heap entry is skipped when popped.
  // Returns false if the event already fired or was cancelled.
  bool Cancel(EventId id);

  // Runs events with time <= `end`, then advances the clock to `end`.
  void RunUntil(SimTime end);

  // Runs every pending event. Intended for tests; production runs are bounded.
  void RunAll();

  // Registers a callback every `period`, first firing at `start`; it fires
  // for the simulator's whole life. Throws std::invalid_argument unless
  // `period` is positive: a period of zero would re-fire at one tick forever.
  void SchedulePeriodic(SimTime start, SimDuration period, Callback cb);

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
  // comparator is one integer compare, and a node's four children fill 64
  // bytes.
  struct HeapEntry {
    uint64_t key;
    uint32_t slot;
    uint32_t gen;

    SimTime when() const { return static_cast<SimTime>(key >> kSeqBits); }
  };
  static_assert(sizeof(HeapEntry) == 16, "four heap entries fill a cache line");

  // Slab record: the callback, built in place by ScheduleAt, and the
  // generation that ids and heap entries for this occupancy carry.
  struct EventRecord {
    Callback cb;
    uint32_t gen = 0;  // bumped on fire/cancel; matches live ids only
  };

  struct PeriodicTask {
    SimDuration period = 0;
    Callback cb;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | (slot + 1);
  }
  static uint64_t MakeKey(SimTime when, uint64_t seq) {
    return (static_cast<uint64_t>(when) << kSeqBits) | seq;
  }

  // ScheduleAt's non-template half: pushes the heap entry for `slot`, whose
  // callback is already built, and mints its id.
  EventId Enqueue(SimTime when, uint32_t slot);
  // 4-ary min-heap on HeapEntry::key.
  void HeapPush(HeapEntry e);
  void HeapPopFront();
  // Drops dead entries and sorts the rest by key (a valid heap).
  void SortLiveEntries();
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
  std::vector<HeapEntry> heap_;   // 4-ary min-heap: children of i are 4i+1..4i+4
  Slab<EventRecord> slab_;        // event records; callbacks stored inline
  size_t live_events_ = 0;
  size_t cancelled_in_heap_ = 0;
  // Indexed by periodic id - 1 (ids are dense from 1); a periodic fires for
  // the simulator's whole life, so entries are never removed.
  std::vector<PeriodicTask> periodics_;
};

}  // namespace tashkent

#endif  // SRC_SIM_SIMULATOR_H_
