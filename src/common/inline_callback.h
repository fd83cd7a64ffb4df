// InlineCallback: a move-only callable whose captures live inline — no heap.
//
// The simulation hot path creates one callback per event, per job, and per
// transaction stage. std::function heap-allocates once a capture outgrows its
// small-buffer optimization (16-32 bytes on mainstream ABIs), which puts an
// allocate/free pair on every simulated event. InlineCallback fixes the
// capture buffer size at compile time instead: captures are stored inline in
// the object, and a capture that does not fit is a compile error pointing at
// the Capacity parameter rather than a silent allocation.
//
// Build a callable where it will live, and move it only when ownership
// changes. Slots that hold callbacks (the simulator's event records, a
// FifoServer's job ring) construct the caller's lambda in place with
// Emplace; wrapping it in a temporary InlineCallback first would add a
// relocation, an indirect call, per hop.
//
// Each hot signature picks its own capacity, sized for the largest capture
// that flows through it (docs/ARCHITECTURE.md tables every alias under
// "Callback capacities", and scripts/ci.sh holds the table to the code).
// When a new capture overflows a capacity, park the payload in its owner or
// raise that alias's capacity — do not fall back to std::function on a hot
// path.
//
// Differences from std::function, all deliberate:
//   * move-only (hot-path callbacks are consumed exactly once or stored once);
//   * no heap fallback (overflow is a static_assert, not an allocation);
//   * invoking an empty InlineCallback is an assert, not std::bad_function_call.
#ifndef SRC_COMMON_INLINE_CALLBACK_H_
#define SRC_COMMON_INLINE_CALLBACK_H_

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tashkent {

template <typename Signature, size_t Capacity>
class InlineCallback;  // defined only for function-type signatures

template <typename R, typename... Args, size_t Capacity>
class InlineCallback<R(Args...), Capacity> {
 public:
  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT: implicit, like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineCallback(F&& f) {  // NOLINT: implicit, like std::function
    Construct(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() {
    // Here rather than in the class body, where the type is still incomplete.
    static_assert(sizeof(InlineCallback) == Capacity + sizeof(void*),
                  "an InlineCallback is its capture buffer plus one pointer");
    Reset();
  }

  // Invocation is const-qualified like std::function's: the object is a
  // handle, the stored callable's body may mutate its own captures.
  R operator()(Args... args) const {
    assert(ops_ != nullptr && "invoking an empty InlineCallback");
    return ops_->invoke(const_cast<unsigned char*>(storage_),
                        std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Replaces the stored callable with `f`, building a callable directly in
  // this object's storage: no temporary InlineCallback, no relocation. An
  // InlineCallback of this type is moved in and nullptr clears, so a slot
  // that forwards whatever its caller passed needs no special cases.
  template <typename F>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      *this = std::forward<F>(f);
    } else if constexpr (std::is_same_v<std::decay_t<F>, std::nullptr_t>) {
      Reset();
    } else {
      Reset();
      Construct(std::forward<F>(f));
    }
  }

  static constexpr size_t capacity() { return Capacity; }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to);  // move-construct at `to`, destroy `from`
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct OpsFor {
    static R Invoke(void* p, Args&&... args) {
      return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
    }
    static void Relocate(void* from, void* to) {
      Fn* f = static_cast<Fn*>(from);
      ::new (to) Fn(std::move(*f));
      f->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops table{&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "callable does not match this InlineCallback's signature");
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for this InlineCallback capacity; raise the "
                  "Capacity parameter of the callback alias you are passing to "
                  "(see docs/ARCHITECTURE.md, 'Hot path & performance model')");
    static_assert(alignof(Fn) <= alignof(void*),
                  "captures aligned beyond a pointer are not supported");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::table;
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Pointer alignment, not max_align_t: every capture in the tree is
  // pointers and integers, and a Capacity that is a multiple of the pointer
  // size then leaves no padding, so the object is exactly Capacity + ops_.
  static_assert(Capacity % alignof(void*) == 0,
                "Capacity must be a multiple of the pointer size");
  alignas(alignof(void*)) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

template <typename Sig, size_t N>
bool operator==(const InlineCallback<Sig, N>& f, std::nullptr_t) {
  return !f;
}
template <typename Sig, size_t N>
bool operator==(std::nullptr_t, const InlineCallback<Sig, N>& f) {
  return !f;
}
template <typename Sig, size_t N>
bool operator!=(const InlineCallback<Sig, N>& f, std::nullptr_t) {
  return static_cast<bool>(f);
}
template <typename Sig, size_t N>
bool operator!=(std::nullptr_t, const InlineCallback<Sig, N>& f) {
  return static_cast<bool>(f);
}

}  // namespace tashkent

#endif  // SRC_COMMON_INLINE_CALLBACK_H_
