// Statistics accumulators shared by the replica monitors and the experiment
// harness: exponentially weighted moving averages (the "smoothed"
// utilizations the paper's load balancer consumes), utilization integrators
// for FIFO servers, percentiles, and bucketed time series for Figure-6 style
// timelines.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/units.h"

namespace tashkent {

// Exponentially weighted moving average. alpha is the weight of a new sample;
// the paper's monitor daemons report "smoothed" CPU and disk utilizations,
// which this models.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  double value() const { return initialized_ ? value_ : 0.0; }
  bool initialized() const { return initialized_; }
  void Reset() { initialized_ = false; value_ = 0.0; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Tracks the busy fraction of a single server (CPU or disk channel) over
// sampling intervals: the monitor calls Sample() periodically and obtains the
// utilization since the previous sample.
class UtilizationIntegrator {
 public:
  // Records that the server was busy for `busy` out of the elapsed window.
  void AddBusy(SimDuration busy) { busy_accum_ += busy; }

  // Returns utilization in [0,1] for the window [last_sample, now] and starts
  // a new window.
  double Sample(SimTime now);

  SimTime last_sample_time() const { return last_sample_; }

 private:
  SimDuration busy_accum_ = 0;
  SimTime last_sample_ = 0;
};

// Exact response-time statistics over every sample of a window. Samples are
// kept as SimDuration (8 bytes each) in 64 KiB blocks that are allocated as
// the count reaches them and kept across Reset(). Growing never copies the
// store, so there is no transient doubling, and the few large blocks do not
// interleave with the simulation's small allocations (a std::deque's
// 512-byte nodes did, and cost a workload 0.2 MiB of peak RSS). Mean() is a
// running sum of the samples' seconds in insertion order, and Percentile()
// selects its two order statistics with std::nth_element; both return the
// same doubles as summing and sorting a vector of ToSeconds() values
// (ToSeconds is monotone, so the order statistics coincide).
class PercentileTracker {
 public:
  void Add(SimDuration d) {
    if (count_ == blocks_.size() << kBlockShift) {
      // Left uninitialised: a block's pages become resident as samples land.
      blocks_.push_back(std::unique_ptr<SimDuration[]>(new SimDuration[kBlockSamples]));
    }
    blocks_[count_ >> kBlockShift][count_ & (kBlockSamples - 1)] = d;
    ++count_;
    sum_s_ += ToSeconds(d);
  }

  // q in [0,1], linearly interpolated between the two nearest ranks;
  // returns 0 when empty. Reorders the stored samples.
  double Percentile(double q);
  double Mean() const { return count_ == 0 ? 0.0 : sum_s_ / static_cast<double>(count_); }
  size_t count() const { return count_; }
  void Reset() {
    count_ = 0;
    sum_s_ = 0.0;
  }

 private:
  class Cursor;  // a random-access iterator over the samples (stats.cc)

  static constexpr size_t kBlockShift = 13;
  static constexpr size_t kBlockSamples = size_t{1} << kBlockShift;

  std::vector<std::unique_ptr<SimDuration[]>> blocks_;
  size_t count_ = 0;
  double sum_s_ = 0.0;
};

// Counts events into fixed-width time buckets; used to render the Figure 6
// throughput timeline (30-second buckets).
class TimeSeries {
 public:
  explicit TimeSeries(SimDuration bucket_width) : width_(bucket_width) {}

  void Record(SimTime t, double value = 1.0);

  // Per-bucket sums, index i covering [i*width, (i+1)*width).
  const std::vector<double>& buckets() const { return buckets_; }

 private:
  SimDuration width_;
  std::vector<double> buckets_;
};

}  // namespace tashkent

#endif  // SRC_COMMON_STATS_H_
