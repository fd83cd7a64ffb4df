// Free-listed slabs and the intrusive doubly-linked list threaded through one.
//
// Three hot structures grew the same hand-rolled shape independently: the
// simulator's event slab, the buffer pool's LRU, and its dirty FIFO — each a
// std::vector of nodes with a free list of recycled slots, the latter two
// with prev/next links woven through the live nodes. This header is that
// shape, written once:
//
//   * Slab<T>      — slot allocator only: Alloc() pops the free list (or
//                    grows the vector), Free() pushes the slot back. Slots
//                    are stable uint32 indices, never pointers, so the vector
//                    may reallocate while handles stay valid.
//   * SlabList<T>  — Slab plus an intrusive doubly-linked list over the live
//                    slots (PushFront/PushBack/Unlink/MoveRunToFront/
//                    head/tail). Free slots reuse the `next` link as the
//                    free-list pointer, so the node layout is exactly the
//                    hand-rolled original's.
//
// Both are deliberately minimal: no iterators beyond head()/next()/prev()
// walking, no destruction hooks (payloads are reset by the owner), no
// shrinking. The owners' behavior under this helper is pinned by
// tests/golden_digest_test.cc — the dedup provably changes nothing.
#ifndef SRC_COMMON_SLAB_LIST_H_
#define SRC_COMMON_SLAB_LIST_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace tashkent {

inline constexpr uint32_t kNilSlot = UINT32_MAX;

// Slot allocator over a growable vector: O(1) Alloc/Free through an
// intrusive free list, zero allocations once the vector reached the
// workload's high-water mark. The payload of a freed slot is left as the
// caller reset it (callers that hold resources clear them before Free).
template <typename T>
class Slab {
 public:
  uint32_t Alloc() {
    if (free_head_ != kNilSlot) {
      const uint32_t slot = free_head_;
      free_head_ = nodes_[slot].next_free;
      nodes_[slot].next_free = kNilSlot;
      return slot;
    }
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  void Free(uint32_t slot) {
    nodes_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  T& operator[](uint32_t slot) { return nodes_[slot].value; }
  const T& operator[](uint32_t slot) const { return nodes_[slot].value; }

  // Total slots ever allocated (live + free); the slab never shrinks.
  size_t slots() const { return nodes_.size(); }

  void Clear() {
    nodes_.clear();
    free_head_ = kNilSlot;
  }

 private:
  struct Node {
    T value{};
    uint32_t next_free = kNilSlot;
  };

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNilSlot;
};

// Intrusive doubly-linked list threaded through a free-listed slab. The
// caller owns membership: Alloc() hands out an unlinked slot, PushFront /
// PushBack link it, Unlink removes it (it may be re-linked or Freed). A
// freed slot reuses `next` as the free-list pointer — the classic layout the
// buffer pool's LRU and dirty FIFO both hand-rolled.
template <typename T>
class SlabList {
 public:
  uint32_t Alloc() {
    if (free_head_ != kNilSlot) {
      const uint32_t slot = free_head_;
      free_head_ = nodes_[slot].next;
      return slot;
    }
    nodes_.emplace_back();
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  // The slot must be unlinked; its payload is left untouched.
  void Free(uint32_t slot) {
    nodes_[slot].next = free_head_;
    free_head_ = slot;
  }

  void PushFront(uint32_t slot) {
    Node& n = nodes_[slot];
    n.prev = kNilSlot;
    n.next = head_;
    if (head_ != kNilSlot) {
      nodes_[head_].prev = slot;
    }
    head_ = slot;
    if (tail_ == kNilSlot) {
      tail_ = slot;
    }
  }

  void PushBack(uint32_t slot) {
    Node& n = nodes_[slot];
    n.next = kNilSlot;
    n.prev = tail_;
    if (tail_ != kNilSlot) {
      nodes_[tail_].next = slot;
    }
    tail_ = slot;
    if (head_ == kNilSlot) {
      head_ = slot;
    }
  }

  void Unlink(uint32_t slot) {
    Node& n = nodes_[slot];
    if (n.prev != kNilSlot) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNilSlot) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  // Moves the linked run front..back (front nearer the head, back reachable
  // from front by next()) to the head in O(1), keeping its internal order.
  // A single node is the run (slot, slot).
  void MoveRunToFront(uint32_t front, uint32_t back) {
    if (front == head_) {
      return;
    }
    const uint32_t before = nodes_[front].prev;  // not nil: front is not the head
    const uint32_t after = nodes_[back].next;
    nodes_[before].next = after;
    if (after != kNilSlot) {
      nodes_[after].prev = before;
    } else {
      tail_ = before;
    }
    nodes_[front].prev = kNilSlot;
    nodes_[back].next = head_;
    nodes_[head_].prev = back;
    head_ = front;
  }

  T& operator[](uint32_t slot) { return nodes_[slot].value; }
  const T& operator[](uint32_t slot) const { return nodes_[slot].value; }

  uint32_t head() const { return head_; }
  uint32_t tail() const { return tail_; }
  uint32_t next(uint32_t slot) const { return nodes_[slot].next; }
  uint32_t prev(uint32_t slot) const { return nodes_[slot].prev; }

  size_t slots() const { return nodes_.size(); }

  void Clear() {
    nodes_.clear();
    free_head_ = kNilSlot;
    head_ = kNilSlot;
    tail_ = kNilSlot;
  }

 private:
  struct Node {
    T value{};
    uint32_t prev = kNilSlot;
    uint32_t next = kNilSlot;  // doubles as the free-list link when free
  };

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNilSlot;
  uint32_t head_ = kNilSlot;
  uint32_t tail_ = kNilSlot;
};

}  // namespace tashkent

#endif  // SRC_COMMON_SLAB_LIST_H_
