// A single-server FIFO queue embedded in the discrete-event simulator.
//
// Models serially shared hardware resources: a replica's CPU and its disk I/O
// channel. Jobs are (service time, completion callback) pairs; the server
// processes one job at a time in arrival order and integrates busy time so the
// monitor daemon can report utilization.
//
// Hot-path layout: completion callbacks are InlineCallbacks (captures stored
// inline in the queue slots, no per-job heap allocation), the queue is a
// RingQueue (steady-state pushes never touch the heap), and the in-service
// job's callback is parked in a member slot so the simulator event that
// completes it captures only `this`. Submit builds each job in its ring
// slot, so a completion is constructed once and then moved only as it
// changes hands: into that member slot when its job starts, and out of it
// when the job completes (so it may submit the next job). Jobs carry no
// payload: the replica parks a running transaction in its own slab and
// hands the server a closure of `{this, slot}`, so a queued job is 80 bytes.
#ifndef SRC_SIM_FIFO_SERVER_H_
#define SRC_SIM_FIFO_SERVER_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/common/inline_callback.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace tashkent {

class FifoServer {
 public:
  // Per-job completion callback. The capacity covers the largest capture,
  // the replica's apply/checkpoint CPU stage: `this`, a duration and a
  // Replica::ApplyDone. Transaction stages capture only the replica and the
  // slot their transaction is parked in (see Replica::Execute), so no job
  // carries an ExecOutcome or a nested continuation.
  using Done = InlineCallback<void(), 64>;

  FifoServer(Simulator* sim, std::string name) : sim_(sim), name_(std::move(name)) {}

  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  // Enqueues a job requiring `service` time; `done` fires when it completes.
  // `done` is anything a Done can hold (a lambda, a Done, or nullptr for no
  // completion), built directly in the job's queue slot.
  template <typename F>
  void Submit(SimDuration service, F&& done) {
    Job& job = queue_.push_slot();
    job.service = service < 0 ? 0 : service;
    job.done.Emplace(std::forward<F>(done));
    if (!busy_) {
      StartNext();
    }
  }

  // Busy time accumulated since the last Sample() call, as a utilization.
  double SampleUtilization() { return util_.Sample(sim_->Now()); }

  bool busy() const { return busy_; }
  size_t queue_length() const { return queue_.size() + (busy_ ? 1 : 0); }
  SimDuration total_busy_time() const { return total_busy_; }
  uint64_t jobs_completed() const { return jobs_completed_; }
  const std::string& name() const { return name_; }

 private:
  struct Job {
    SimDuration service;
    Done done;
  };
  static_assert(sizeof(Job) <= 80, "queued jobs stay at most 80 bytes");

  void StartNext();
  void FinishActive();

  Simulator* sim_;
  std::string name_;
  RingQueue<Job> queue_;
  Done active_done_;  // completion callback of the job in service
  bool busy_ = false;
  UtilizationIntegrator util_;
  SimDuration total_busy_ = 0;
  uint64_t jobs_completed_ = 0;
};

}  // namespace tashkent

#endif  // SRC_SIM_FIFO_SERVER_H_
