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
//   * ListOps      — the list algorithm alone (PushFront/PushBack/Unlink/
//                    MoveRunToFront/head/tail) over any node array whose
//                    elements carry uint32 prev/next links. The buffer pool
//                    runs its LRU on bare 8-byte ListLinks, whose slots it
//                    computes from each entry's page (src/storage/buffer_pool.h).
//   * SlabList<T>  — Slab plus ListOps over nodes that carry a payload (the
//                    pool's dirty FIFO). Free slots reuse the `next` link as
//                    the free-list pointer.
//
// All are deliberately minimal: no iterators beyond head()/next()/prev()
// walking, no destruction hooks (payloads are reset by the owner), no
// shrinking. The owners' behavior under this helper is pinned by
// tests/golden_digest_test.cc — the dedup provably changes nothing.
#ifndef SRC_COMMON_SLAB_LIST_H_
#define SRC_COMMON_SLAB_LIST_H_

#include <cstddef>
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

// Payload-free list node: the two links alone, 8 bytes, eight to a cache
// line. An owner that can compute everything else about a node from its
// slot number keeps a std::vector<ListLink> and drives it with ListOps.
struct ListLink {
  uint32_t prev = kNilSlot;
  uint32_t next = kNilSlot;
};

// The intrusive doubly-linked list algorithm, written once: the head and
// tail of a list whose nodes live in the owner's array. `Nodes` is any
// indexable container whose elements have uint32 `prev` and `next` members
// (SlabList's nodes, or a bare std::vector<ListLink>). The caller owns
// membership: a slot is linked by PushFront / PushBack and removed by
// Unlink, which leaves the slot's own links as they were.
class ListOps {
 public:
  template <typename Nodes>
  void PushFront(Nodes& nodes, uint32_t slot) {
    auto& n = nodes[slot];
    n.prev = kNilSlot;
    n.next = head_;
    if (head_ != kNilSlot) {
      nodes[head_].prev = slot;
    }
    head_ = slot;
    if (tail_ == kNilSlot) {
      tail_ = slot;
    }
  }

  template <typename Nodes>
  void PushBack(Nodes& nodes, uint32_t slot) {
    auto& n = nodes[slot];
    n.next = kNilSlot;
    n.prev = tail_;
    if (tail_ != kNilSlot) {
      nodes[tail_].next = slot;
    }
    tail_ = slot;
    if (head_ == kNilSlot) {
      head_ = slot;
    }
  }

  template <typename Nodes>
  void Unlink(Nodes& nodes, uint32_t slot) {
    const auto& n = nodes[slot];
    if (n.prev != kNilSlot) {
      nodes[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNilSlot) {
      nodes[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  // Moves the linked run front..back (front nearer the head, back reachable
  // from front by next) to the head in O(1), keeping its internal order.
  // A single node is the run (slot, slot).
  template <typename Nodes>
  void MoveRunToFront(Nodes& nodes, uint32_t front, uint32_t back) {
    if (front == head_) {
      return;
    }
    const uint32_t before = nodes[front].prev;  // not nil: front is not the head
    const uint32_t after = nodes[back].next;
    nodes[before].next = after;
    if (after != kNilSlot) {
      nodes[after].prev = before;
    } else {
      tail_ = before;
    }
    nodes[front].prev = kNilSlot;
    nodes[back].next = head_;
    nodes[head_].prev = back;
    head_ = front;
  }

  uint32_t head() const { return head_; }
  uint32_t tail() const { return tail_; }

  void Clear() {
    head_ = kNilSlot;
    tail_ = kNilSlot;
  }

 private:
  uint32_t head_ = kNilSlot;
  uint32_t tail_ = kNilSlot;
};

// Intrusive doubly-linked list threaded through a free-listed slab: the
// ListOps algorithm over nodes that carry a payload. The caller owns
// membership: Alloc() hands out an unlinked slot, PushFront / PushBack link
// it, Unlink removes it (it may be re-linked or Freed). A freed slot reuses
// `next` as the free-list pointer.
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

  void PushFront(uint32_t slot) { list_.PushFront(nodes_, slot); }
  void PushBack(uint32_t slot) { list_.PushBack(nodes_, slot); }
  void Unlink(uint32_t slot) { list_.Unlink(nodes_, slot); }
  void MoveRunToFront(uint32_t front, uint32_t back) {
    list_.MoveRunToFront(nodes_, front, back);
  }

  T& operator[](uint32_t slot) { return nodes_[slot].value; }
  const T& operator[](uint32_t slot) const { return nodes_[slot].value; }

  uint32_t head() const { return list_.head(); }
  uint32_t tail() const { return list_.tail(); }
  uint32_t next(uint32_t slot) const { return nodes_[slot].next; }
  uint32_t prev(uint32_t slot) const { return nodes_[slot].prev; }

  size_t slots() const { return nodes_.size(); }

  void Clear() {
    nodes_.clear();
    free_head_ = kNilSlot;
    list_.Clear();
  }

 private:
  struct Node {
    T value{};
    uint32_t prev = kNilSlot;
    uint32_t next = kNilSlot;  // doubles as the free-list link when free
  };

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNilSlot;
  ListOps list_;
};

}  // namespace tashkent

#endif  // SRC_COMMON_SLAB_LIST_H_
