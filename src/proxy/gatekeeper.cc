#include "src/proxy/gatekeeper.h"

#include <stdexcept>

namespace tashkent {

// Both paths publish the new count before running work, so anything the work
// routes synchronously already sees it.
void Gatekeeper::Admit(Work work) {
  if (in_flight_ < max_in_flight_) {
    ++in_flight_;
    Raised();
    work();
  } else {
    queue_.push_back(std::move(work));
    Raised();
  }
}

void Gatekeeper::Release() {
  if (in_flight_ == 0) {
    throw std::logic_error("Gatekeeper::Release without a matching Admit");
  }
  if (!queue_.empty()) {
    // Hand the slot straight to the next queued transaction.
    Work next = std::move(queue_.front());
    queue_.pop_front();
    Lowered();
    next();
  } else {
    --in_flight_;
    Lowered();
  }
}

}  // namespace tashkent
