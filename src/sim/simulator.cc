#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace tashkent {

namespace {

// Out of line so the throw does not bloat (and deoptimize) ScheduleAt's
// inlinable fast path.
[[noreturn]] void ThrowTimeOverflow() {
  throw std::overflow_error(
      "Simulator::ScheduleAt: simulated time exceeds the packed heap key's "
      "40-bit range (~12.7 days)");
}

}  // namespace

Simulator::EventId Simulator::Enqueue(SimTime when, uint32_t slot) {
  if (when < now_) {
    when = now_;
  }
  // Both overflow guards are rare (a 12.7-day clock, a 16.7M-schedule
  // sequence space); folding them into ONE predictable branch with bitwise |
  // keeps a single compare-pair + branch on the per-event fast path — the
  // split form measured ~8% slower on the kernel-storm cell.
  if (__builtin_expect((when > kMaxTime) | (next_seq_ >= seq_limit_), 0)) {
    if (when > kMaxTime) {
      // No id was minted for this occupancy, so the slot goes back as is.
      slab_[slot].cb = nullptr;
      slab_.Free(slot);
      ThrowTimeOverflow();
    }
    RenumberSequences();
  }
  const uint32_t gen = slab_[slot].gen;
  HeapPush(HeapEntry{MakeKey(when, next_seq_++), slot, gen});
  ++live_events_;
  return MakeId(slot, gen);
}

void Simulator::HeapPush(HeapEntry e) {
  // Sift a hole up from the new leaf and drop `e` into it.
  size_t hole = heap_.size();
  heap_.emplace_back();
  HeapEntry* h = heap_.data();
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (h[parent].key <= e.key) {
      break;
    }
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

void Simulator::HeapPopFront() {
  // Floyd's pop: walk the root's hole down to a leaf along least children,
  // then sift the former last entry up from there. It usually belongs near
  // the bottom, so the walk needs no per-level compare against it, and the
  // walk's only branch (are there four children?) is predictable.
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  HeapEntry* h = heap_.data();
  size_t hole = 0;
  for (;;) {
    const size_t c = 4 * hole + 1;
    size_t least;
    if (c + 3 < n) {
      // All four children exist: a two-round tournament the compiler turns
      // into conditional moves, since which child wins is unpredictable.
      const size_t a = c + (h[c + 1].key < h[c].key);
      const size_t b = c + 2 + (h[c + 3].key < h[c + 2].key);
      least = h[b].key < h[a].key ? b : a;
    } else if (c < n) {
      least = c;
      for (size_t i = c + 1; i < n; ++i) {
        least = h[i].key < h[least].key ? i : least;
      }
    } else {
      break;
    }
    h[hole] = h[least];
    hole = least;
  }
  while (hole > 0) {
    const size_t parent = (hole - 1) / 4;
    if (h[parent].key <= last.key) {
      break;
    }
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
}

bool Simulator::Cancel(EventId id) {
  const uint32_t lo = static_cast<uint32_t>(id);
  if (lo == 0 || lo > slab_.slots()) {
    return false;
  }
  const uint32_t slot = lo - 1;
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  EventRecord& rec = slab_[slot];
  // A generation match implies the slot still holds the occupancy this id was
  // minted for: fire/cancel bumps the generation, and new ids are minted with
  // the bumped value only when the slot is reallocated.
  if (rec.gen != gen) {
    return false;  // already fired, cancelled, or a stale recycled handle
  }
  rec.cb = nullptr;  // run the capture's destructor now, not at pop time
  ReleaseSlot(slot);
  ++cancelled_in_heap_;
  MaybeCompactHeap();
  return true;
}

void Simulator::ReleaseSlot(uint32_t slot) {
  ++slab_[slot].gen;  // invalidate every outstanding id for this occupancy
  slab_.Free(slot);
  --live_events_;
}

void Simulator::MaybeCompactHeap() {
  if (heap_.size() < kCompactMinHeap || cancelled_in_heap_ * 2 <= heap_.size()) {
    return;
  }
  SortLiveEntries();
}

void Simulator::SortLiveEntries() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               return slab_[e.slot].gen != e.gen;
                             }),
              heap_.end());
  cancelled_in_heap_ = 0;
  // An array sorted ascending is a valid min-heap of any arity: every parent
  // sits before, and fires no later than, its children.
  std::sort(heap_.begin(), heap_.end(),
            [](const HeapEntry& a, const HeapEntry& b) { return a.key < b.key; });
}

void Simulator::RenumberSequences() {
  // Drop dead entries, then re-assign dense sequence numbers in current
  // firing order. Relative order is all the comparator ever uses (sequence
  // numbers only break ties within one tick), so every pairwise comparison
  // is preserved, and entries scheduled after the renumber sort later within
  // their tick than every survivor — exactly as before. The array stays
  // sorted, so it stays a heap.
  SortLiveEntries();
  uint64_t seq = 0;
  for (HeapEntry& e : heap_) {
    e.key = MakeKey(e.when(), seq++);
  }
  next_seq_ = seq;
  ++seq_renumbers_;
  if (next_seq_ >= seq_limit_) {
    throw std::overflow_error(
        "Simulator: more live events than the sequence space after renumber");
  }
}

void Simulator::RunEvents(SimTime limit) {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    if (top.when() > limit) {
      break;
    }
    HeapPopFront();
    EventRecord& rec = slab_[top.slot];
    if (rec.gen != top.gen) {
      --cancelled_in_heap_;  // lazily-cancelled entry: skip
      continue;
    }
    // Move the callback out and free the slot before invoking: the callback
    // may schedule (growing the slab) or cancel other events.
    Callback cb = std::move(rec.cb);
    ReleaseSlot(top.slot);
    now_ = top.when();
    ++executed_;
    cb();
  }
}

void Simulator::RunUntil(SimTime end) {
  RunEvents(end);
  if (now_ < end) {
    now_ = end;
  }
}

void Simulator::RunAll() { RunEvents(kMaxTime); }

void Simulator::SchedulePeriodic(SimTime start, SimDuration period, Callback cb) {
  if (period <= 0) {
    throw std::invalid_argument("Simulator::SchedulePeriodic: period must be positive, got " +
                                std::to_string(period) + " us");
  }
  periodics_.push_back(PeriodicTask{period, std::move(cb)});
  const uint64_t pid = periodics_.size();
  ScheduleAt(start, [this, pid]() { PeriodicTick(pid); });
}

void Simulator::PeriodicTick(uint64_t periodic_id) {
  // The callback runs outside the registry entry: it may call
  // SchedulePeriodic, which can grow (reallocate) the vector — so the entry
  // is indexed again afterwards.
  Callback cb = std::move(periodics_[periodic_id - 1].cb);
  cb();
  PeriodicTask& task = periodics_[periodic_id - 1];
  task.cb = std::move(cb);
  ScheduleAfter(task.period, [this, periodic_id]() { PeriodicTick(periodic_id); });
}

}  // namespace tashkent
