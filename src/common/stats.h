// Statistics accumulators shared by the replica monitors and the experiment
// harness: exponentially weighted moving averages (the "smoothed"
// utilizations the paper's load balancer consumes), utilization integrators
// for FIFO servers, percentiles, and bucketed time series for Figure-6 style
// timelines.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <algorithm>
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

// Percentile estimator: stores all samples (experiments are short enough for
// this to be fine) and sorts on demand.
class PercentileTracker {
 public:
  void Add(double x) { samples_.push_back(x); sorted_ = false; }

  // q in [0,1]; returns 0 when empty.
  double Percentile(double q);
  double Mean() const;
  size_t count() const { return samples_.size(); }
  void Reset() { samples_.clear(); sorted_ = false; }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
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
