// Gatekeeper admission control [ENTZ04].
//
// The proxy limits the number of transactions concurrently inside the
// database to prevent bursts from overloading it; excess arrivals queue FIFO
// at the proxy. This is the admission-control component the paper's proxies
// run in front of every replica.
#ifndef SRC_PROXY_GATEKEEPER_H_
#define SRC_PROXY_GATEKEEPER_H_

#include <cstdint>

#include "src/common/ring_queue.h"
#include "src/common/slab_list.h"
#include "src/proxy/idle_sets.h"

namespace tashkent {

class Gatekeeper {
 public:
  // A queued transaction is named by its owner's slot for it (the proxy
  // parks each admitted transaction once, in its own slab); the queue holds
  // nothing else.
  using Ticket = uint32_t;
  static_assert(sizeof(Ticket) <= 8, "a gatekeeper queue entry is a slot index");

  explicit Gatekeeper(int max_in_flight) : max_in_flight_(max_in_flight) {}

  // Returns true when `ticket` takes a free slot now (the caller runs it);
  // otherwise queues it FIFO. The holder of an admitted ticket must call
  // Release() exactly once when its work finishes.
  bool Admit(Ticket ticket);

  // Frees a slot and hands it straight to the oldest queued ticket, which it
  // returns for the caller to run; returns kNilSlot when none was queued.
  // Throws std::logic_error when no admitted work holds a slot.
  Ticket Release();

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
  RingQueue<Ticket> queue_;
  IdleSets* idle_sets_ = nullptr;
  size_t idle_index_ = 0;
};

}  // namespace tashkent

#endif  // SRC_PROXY_GATEKEEPER_H_
