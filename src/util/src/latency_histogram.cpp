#include "convbound/util/latency_histogram.hpp"

#include <algorithm>
#include <cmath>

#include "convbound/util/check.hpp"

namespace convbound {

void LatencyHistogram::record(double seconds) {
  if (!(seconds > 0)) seconds = 0;  // also squashes NaN into the underflow
  ++counts_[static_cast<std::size_t>(bucket_index(seconds))];
  if (count_ == 0) {
    min_ = max_ = seconds;
  } else {
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
  }
  ++count_;
  sum_ += seconds;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i)
    counts_[static_cast<std::size_t>(i)] +=
        other.counts_[static_cast<std::size_t>(i)];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
}

int LatencyHistogram::bucket_index(double seconds) {
  if (seconds < kMinSeconds) return 0;
  if (seconds >= kMaxSeconds) return kBuckets - 1;
  const int rung = static_cast<int>(
      std::log(seconds / kMinSeconds) / std::log(kGrowth));
  return 1 + std::clamp(rung, 0, kRungs - 1);
}

double LatencyHistogram::bucket_lower(int index) {
  if (index <= 0) return 0;
  if (index >= kBuckets - 1) return kMaxSeconds;
  return kMinSeconds * std::pow(kGrowth, index - 1);
}

double LatencyHistogram::bucket_upper(int index) {
  if (index <= 0) return kMinSeconds;
  if (index >= kBuckets - 1) return kMaxSeconds;  // unbounded; see header
  return kMinSeconds * std::pow(kGrowth, index);
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1);
  // The extremes are tracked exactly; don't let bucket interpolation blur
  // them (q=1 must report the true max, not a point inside its bucket).
  if (rank <= 0) return min_;
  if (rank >= static_cast<double>(count_ - 1)) return max_;
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (rank < static_cast<double>(cum + c)) {
      // Rank interpolation inside the bucket: samples at local ranks
      // 0..c-1 spread linearly over the bucket's extent, clamped so the
      // result never leaves the bucket (a fractional rank near the top of
      // a sparse bucket would otherwise overshoot the upper edge and break
      // the ≤5% guarantee). The overflow bucket has no upper edge; its
      // exact max stands in.
      const double within = std::clamp(
          (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c),
          0.0, 1.0);
      const double lo = bucket_lower(b);
      const double hi = b == kBuckets - 1 ? max_ : bucket_upper(b);
      const double v = lo + within * (std::max(hi, lo) - lo);
      return std::clamp(v, min_, max_);
    }
    cum += c;
  }
  return max_;
}

std::uint64_t LatencyHistogram::bucket_count(int index) const {
  CB_CHECK_MSG(index >= 0 && index < kBuckets,
               "histogram bucket index " << index << " out of range");
  return counts_[static_cast<std::size_t>(index)];
}

}  // namespace convbound
