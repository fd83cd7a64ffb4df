#include "src/proxy/gatekeeper.h"

#include <stdexcept>

namespace tashkent {

// Both paths publish the new count before the caller runs the admitted
// ticket, so anything that work routes synchronously already sees it.
bool Gatekeeper::Admit(Ticket ticket) {
  if (in_flight_ < max_in_flight_) {
    ++in_flight_;
    Raised();
    return true;
  }
  queue_.push_back(ticket);
  Raised();
  return false;
}

Gatekeeper::Ticket Gatekeeper::Release() {
  if (in_flight_ == 0) {
    throw std::logic_error("Gatekeeper::Release without a matching Admit");
  }
  if (queue_.empty()) {
    --in_flight_;
    Lowered();
    return kNilSlot;
  }
  // Hand the slot straight to the next queued transaction.
  const Ticket next = queue_.front();
  queue_.pop_front();
  Lowered();
  return next;
}

}  // namespace tashkent
