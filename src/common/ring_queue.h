// RingQueue: a growable circular FIFO that is allocation-free in steady
// state, used for hot-path job/admission queues in place of std::deque.
//
// libstdc++'s deque sizes its nodes at 512 bytes, so queues of large
// elements (96-byte FifoServer jobs) get only five elements per node — a
// heap allocation every few pushes and a free every few pops. RingQueue keeps a power-of-two slot array and
// only allocates when the backlog exceeds every previous high-water mark;
// AllocGuard-instrumented tests (tests/proxy_test.cc) pin this down.
//
// Requirements on T: default-constructible and move-assignable. Popped
// slots keep a moved-from T until overwritten, so T's moved-from state must
// be cheap to hold (true of InlineCallback and plain structs).
#ifndef SRC_COMMON_RING_QUEUE_H_
#define SRC_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace tashkent {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  void push_back(T value) { push_slot() = std::move(value); }

  // Appends a slot and returns it for the caller to fill in place. It holds
  // whatever the slot held before: a default T, or a T a pop moved from.
  T& push_slot() {
    if (size_ == slots_.size()) {
      Grow();
    }
    T& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
    ++size_;
    return slot;
  }

  T& front() { return slots_[head_]; }

  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    const size_t cap = slots_.empty() ? 8 : 2 * slots_.size();
    std::vector<T> bigger(cap);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity is always a power of two (or zero)
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace tashkent

#endif  // SRC_COMMON_RING_QUEUE_H_
