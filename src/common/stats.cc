#include "src/common/stats.h"

#include <cstddef>
#include <iterator>

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

// Sample `i` of the tracker, as a random-access iterator: what
// std::nth_element needs to select across the blocks in place.
class PercentileTracker::Cursor {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = SimDuration;
  using difference_type = std::ptrdiff_t;
  using pointer = SimDuration*;
  using reference = SimDuration&;

  Cursor(PercentileTracker* t, difference_type i) : t_(t), i_(i) {}

  reference operator*() const { return (*this)[0]; }
  reference operator[](difference_type n) const {
    const auto at = static_cast<size_t>(i_ + n);
    return t_->blocks_[at >> kBlockShift][at & (kBlockSamples - 1)];
  }
  Cursor& operator++() { return *this += 1; }
  Cursor operator++(int) {
    Cursor before = *this;
    ++i_;
    return before;
  }
  Cursor& operator--() { return *this -= 1; }
  Cursor operator--(int) {
    Cursor before = *this;
    --i_;
    return before;
  }
  Cursor& operator+=(difference_type n) { i_ += n; return *this; }
  Cursor& operator-=(difference_type n) { i_ -= n; return *this; }
  friend Cursor operator+(Cursor c, difference_type n) { return c += n; }
  friend Cursor operator+(difference_type n, Cursor c) { return c += n; }
  friend Cursor operator-(Cursor c, difference_type n) { return c -= n; }
  friend difference_type operator-(const Cursor& a, const Cursor& b) { return a.i_ - b.i_; }
  friend bool operator==(const Cursor& a, const Cursor& b) { return a.i_ == b.i_; }
  friend bool operator!=(const Cursor& a, const Cursor& b) { return a.i_ != b.i_; }
  friend bool operator<(const Cursor& a, const Cursor& b) { return a.i_ < b.i_; }
  friend bool operator>(const Cursor& a, const Cursor& b) { return a.i_ > b.i_; }
  friend bool operator<=(const Cursor& a, const Cursor& b) { return a.i_ <= b.i_; }
  friend bool operator>=(const Cursor& a, const Cursor& b) { return a.i_ >= b.i_; }

 private:
  PercentileTracker* t_;
  difference_type i_;
};

double PercentileTracker::Percentile(double q) {
  if (count_ == 0) {
    return 0.0;
  }
  const size_t last = count_ - 1;
  const double pos = q * static_cast<double>(last);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, last);
  const double frac = pos - static_cast<double>(lo);
  const Cursor begin(this, 0);
  const Cursor end(this, static_cast<std::ptrdiff_t>(count_));
  const Cursor lo_it = begin + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(begin, lo_it, end);
  // Everything after rank lo is at least it, so rank hi is that range's least.
  const SimDuration lo_d = *lo_it;
  const SimDuration hi_d = hi == lo ? lo_d : *std::min_element(lo_it + 1, end);
  return ToSeconds(lo_d) * (1.0 - frac) + ToSeconds(hi_d) * frac;
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
