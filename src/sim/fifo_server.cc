#include "src/sim/fifo_server.h"

namespace tashkent {

void FifoServer::StartNext() {
  RingQueue<Job>& queue = fg_queue_.empty() ? bg_queue_ : fg_queue_;
  if (queue.empty()) {
    return;
  }
  Job& job = queue.front();
  const SimDuration service = job.service;
  active_done_ = std::move(job.done);
  queue.pop_front();
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
