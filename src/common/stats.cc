#include "src/common/stats.h"

namespace tashkent {

double UtilizationIntegrator::Sample(SimTime now) {
  const SimDuration window = now - last_sample_;
  double util = 0.0;
  if (window > 0) {
    util = static_cast<double>(busy_accum_) / static_cast<double>(window);
  }
  busy_accum_ = 0;
  last_sample_ = now;
  return std::clamp(util, 0.0, 1.0);
}

double PercentileTracker::Percentile(double q) {
  if (samples_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double PercentileTracker::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : samples_) {
    s += x;
  }
  return s / static_cast<double>(samples_.size());
}

void TimeSeries::Record(SimTime t, double value) {
  if (t < 0) {
    return;
  }
  const size_t idx = static_cast<size_t>(t / width_);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0.0);
  }
  buckets_[idx] += value;
}

}  // namespace tashkent
