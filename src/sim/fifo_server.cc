#include "src/sim/fifo_server.h"

namespace tashkent {

void FifoServer::StartNext() {
  if (queue_.empty()) {
    return;
  }
  Job& job = queue_.front();
  const SimDuration service = job.service;
  active_done_ = std::move(job.done);
  queue_.pop_front();
  busy_ = true;
  util_.AddBusy(service);
  total_busy_ += service;
  sim_->ScheduleAfter(service, [this]() { FinishActive(); });
}

void FifoServer::FinishActive() {
  busy_ = false;
  ++jobs_completed_;
  Done done = std::move(active_done_);
  if (done) {
    done();
  }
  if (!busy_) {  // The completion callback may have submitted and started work.
    StartNext();
  }
}

}  // namespace tashkent
