// Gatekeeper admission control [ENTZ04].
//
// The proxy limits the number of transactions concurrently inside the
// database to prevent bursts from overloading it; excess arrivals queue FIFO
// at the proxy. This is the admission-control component the paper's proxies
// run in front of every replica.
#ifndef SRC_PROXY_GATEKEEPER_H_
#define SRC_PROXY_GATEKEEPER_H_

#include <cstdint>
#include <utility>

#include "src/common/inline_callback.h"
#include "src/common/ring_queue.h"
#include "src/proxy/idle_sets.h"

namespace tashkent {

class Gatekeeper {
 public:
  // Admitted work with inline captures (one is built per submitted
  // transaction — hot). Sized for the proxy's submission closure, which
  // carries the transaction-done continuation.
  using Work = InlineCallback<void(), 144>;

  explicit Gatekeeper(int max_in_flight) : max_in_flight_(max_in_flight) {}

  // Runs `work` immediately if a slot is free, otherwise queues it. The
  // holder must call Release() exactly once when the admitted work finishes.
  void Admit(Work work);

  // Frees a slot and admits the next queued arrival, if any. Throws
  // std::logic_error when no admitted work holds a slot.
  void Release();

  // Reports this replica's outstanding count to `sets` (non-null) at
  // `index` from now on. A gatekeeper reports to one set at a time:
  // attaching to another set supersedes the previous one.
  void AttachIdleSets(IdleSets* sets, size_t index) {
    if (idle_sets_ != nullptr && idle_sets_ != sets) {
      idle_sets_->Supersede();
    }
    idle_sets_ = sets;
    idle_index_ = index;
    sets->Assign(index, outstanding());
  }
  // Stops reporting if this gatekeeper still reports to `sets`.
  void DetachIdleSets(const IdleSets* sets) {
    if (idle_sets_ == sets) {
      idle_sets_ = nullptr;
    }
  }
  const IdleSets* idle_sets() const { return idle_sets_; }

  int in_flight() const { return in_flight_; }
  size_t queued() const { return queue_.size(); }
  // Outstanding requests at this replica: executing plus waiting. This is the
  // "connection count" signal LeastConnections and LARD consume.
  size_t outstanding() const { return static_cast<size_t>(in_flight_) + queue_.size(); }
  int max_in_flight() const { return max_in_flight_; }

 private:
  void Raised() {
    if (idle_sets_ != nullptr) {
      idle_sets_->Raised(idle_index_, outstanding());
    }
  }
  void Lowered() {
    if (idle_sets_ != nullptr) {
      idle_sets_->Lowered(idle_index_, outstanding());
    }
  }

  int max_in_flight_;
  int in_flight_ = 0;
  RingQueue<Work> queue_;
  IdleSets* idle_sets_ = nullptr;
  size_t idle_index_ = 0;
};

}  // namespace tashkent

#endif  // SRC_PROXY_GATEKEEPER_H_
