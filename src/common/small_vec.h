// SmallVec: a vector with inline storage for its first N elements.
//
// Writesets carry a handful of items (the paper measures ~275-byte average
// writesets; the largest transaction type in either workload writes 6 rows
// across 3 tables), yet std::vector pays one heap allocation per field per
// transaction — the last per-transaction heap traffic on the simulation hot
// path after PR 4. SmallVec stores up to N elements inline in the object;
// only an overflowing push spills to a heap buffer, and a spilled buffer can
// be re-homed into an arena for long-lived copies (the certifier log) via
// MoveSpillTo.
//
// Moves copy only the live elements (not the full inline capacity), so
// moving a SmallVec-backed Writeset into the slab that parks it costs bytes
// proportional to the data. No callback captures a writeset: its owners park
// it and pass a slot (docs/ARCHITECTURE.md, "Callback capacities").
//
// Storage states, tracked by `storage_`:
//   kInline   — elements live in inline_; size_ <= N.
//   kHeap     — elements live in a malloc'd buffer this object owns.
//   kExternal — elements live in caller-provided memory (an arena); the
//               destructor does not free it. Produced by MoveSpillTo.
#ifndef SRC_COMMON_SMALL_VEC_H_
#define SRC_COMMON_SMALL_VEC_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace tashkent {

template <typename T, size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SmallVec elements must be nothrow move constructible");

 public:
  SmallVec() = default;

  SmallVec(std::initializer_list<T> init) {
    for (const T& v : init) {
      push_back(v);
    }
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    clear();
    for (const T& v : init) {
      push_back(v);
    }
    return *this;
  }

  SmallVec(const SmallVec& other) { CopyFrom(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear();
      ReleaseHeap();
      CopyFrom(other);
    }
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept { StealFrom(other); }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear();
      ReleaseHeap();
      StealFrom(other);
    }
    return *this;
  }

  ~SmallVec() {
    clear();
    ReleaseHeap();
  }

  void push_back(const T& v) { ::new (static_cast<void*>(Grow())) T(v); }
  void push_back(T&& v) { ::new (static_cast<void*>(Grow())) T(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    T* p = ::new (static_cast<void*>(Grow())) T{std::forward<Args>(args)...};
    return *p;
  }

  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      T* d = data();
      for (uint32_t i = 0; i < size_; ++i) {
        d[i].~T();
      }
    }
    size_ = 0;
  }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  static constexpr size_t inline_capacity() { return N; }

  // True when the elements live outside the inline buffer (heap or external).
  bool spilled() const { return storage_ != Storage::kInline; }
  size_t spill_bytes() const { return spilled() ? size_ * sizeof(T) : 0; }

  // Re-homes a heap spill into caller-provided memory (an arena block of at
  // least spill_bytes()); afterwards the object no longer owns its buffer.
  // No-op for inline storage. Trivially-copyable payloads only — this is the
  // certifier-log interning path, not a general-purpose allocator bridge.
  void MoveSpillTo(void* mem) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "MoveSpillTo supports trivially copyable elements only");
    if (!spilled()) {
      return;
    }
    std::memcpy(mem, heap_, size_ * sizeof(T));
    if (storage_ == Storage::kHeap) {
      ::operator delete(static_cast<void*>(heap_));
    }
    heap_ = static_cast<T*>(mem);
    capacity_ = size_;
    storage_ = Storage::kExternal;
  }

  bool operator==(const SmallVec& other) const {
    if (size_ != other.size_) {
      return false;
    }
    const T* a = data();
    const T* b = other.data();
    for (uint32_t i = 0; i < size_; ++i) {
      if (!(a[i] == b[i])) {
        return false;
      }
    }
    return true;
  }
  bool operator!=(const SmallVec& other) const { return !(*this == other); }

 private:
  enum class Storage : uint8_t { kInline, kHeap, kExternal };

  T* data() { return spilled() ? heap_ : InlineData(); }
  const T* data() const { return spilled() ? heap_ : InlineData(); }

  T* InlineData() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* InlineData() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  // Returns the address for the next element, spilling inline -> heap or
  // growing the heap buffer as needed.
  T* Grow() {
    if (size_ < capacity_) {
      return data() + size_++;
    }
    const uint32_t new_cap = capacity_ * 2;
    T* buf = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    T* src = data();
    for (uint32_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(buf + i)) T(std::move(src[i]));
      src[i].~T();
    }
    if (storage_ == Storage::kHeap) {
      ::operator delete(static_cast<void*>(heap_));
    }
    heap_ = buf;
    capacity_ = new_cap;
    storage_ = Storage::kHeap;
    return buf + size_++;
  }

  void ReleaseHeap() {
    if (storage_ == Storage::kHeap) {
      ::operator delete(static_cast<void*>(heap_));
    }
    storage_ = Storage::kInline;
    capacity_ = static_cast<uint32_t>(N);
    heap_ = nullptr;
  }

  // *this must be empty/inline. Deep-copies; an external (arena) spill is
  // copied into owned storage, so copies never alias arena memory.
  void CopyFrom(const SmallVec& other) {
    for (const T& v : other) {
      push_back(v);
    }
  }

  // *this must be empty/inline. Steals heap/external buffers; moves inline
  // elements one by one (cost proportional to live data, not capacity).
  void StealFrom(SmallVec& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      storage_ = other.storage_;
      other.heap_ = nullptr;
      other.size_ = 0;
      other.capacity_ = static_cast<uint32_t>(N);
      other.storage_ = Storage::kInline;
      return;
    }
    T* src = other.InlineData();
    T* dst = InlineData();
    for (uint32_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(dst + i)) T(std::move(src[i]));
      src[i].~T();
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* heap_ = nullptr;
  uint32_t size_ = 0;
  uint32_t capacity_ = static_cast<uint32_t>(N);
  Storage storage_ = Storage::kInline;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace tashkent

#endif  // SRC_COMMON_SMALL_VEC_H_
