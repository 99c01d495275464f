// Exact, mergeable latency telemetry (HDR-histogram style).
//
// A fixed geometric bucket ladder covers [1µs, 100s) at 5% relative
// resolution: bucket i spans [kMinSeconds * 1.05^i, kMinSeconds * 1.05^(i+1)),
// plus one underflow bucket below 1µs and one overflow bucket at/above 100s.
// record() is O(1) (one log + one increment), so it can sit on the serving
// batch path; memory is a fixed ~3KB of counters regardless of how long the
// server runs.
//
// The point of the ladder is *mergeability*: two histograms over disjoint
// request populations merge by bucket-wise addition, and any quantile of
// the merged histogram lands within one bucket (≤5% relative error) of the
// combined population's order statistic at that rank — a nearest-rank
// quantile, see the quantile() contract below — unlike averaging per-part
// percentiles, which is not a percentile at all and can misreport a
// heterogeneous fleet's tail by 2x or more (the bug this type exists to
// fix; see tests/stats_test.cpp). Count, sum (hence mean), min, and max
// are tracked exactly on the side, so the extremes and the mean carry no
// bucket error.
#pragma once

#include <cstdint>
#include <vector>

namespace convbound {

class LatencyHistogram {
 public:
  /// Lower edge of the first geometric bucket; values below land in the
  /// underflow bucket [0, kMinSeconds).
  static constexpr double kMinSeconds = 1e-6;
  /// Values at/above this land in the overflow bucket (their exact max is
  /// still tracked).
  static constexpr double kMaxSeconds = 100.0;
  /// Relative bucket width: each bucket's upper edge is 5% above its lower
  /// edge, bounding the quantile interpolation error to 5%.
  static constexpr double kGrowth = 1.05;
  /// Geometric rungs covering [kMinSeconds, kMaxSeconds):
  /// 1e-6 * 1.05^378 ≈ 102s >= 100s (verified by tests/stats_test.cpp).
  static constexpr int kRungs = 378;
  /// Total buckets: underflow + rungs + overflow.
  static constexpr int kBuckets = kRungs + 2;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  /// O(1); negative values clamp to 0 (underflow bucket).
  void record(double seconds);

  /// Bucket-wise addition — the merged histogram is exactly the histogram
  /// of the concatenated populations.
  void merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Exact sum of recorded values (mean carries no bucket error).
  double sum() const { return sum_; }
  double mean() const;
  /// Exact extremes; 0 when empty.
  double min_value() const { return count_ > 0 ? min_ : 0; }
  double max_value() const { return count_ > 0 ? max_ : 0; }

  /// The q-quantile (q in [0,1]) by rank interpolation inside the bucket
  /// holding the order statistic at rank q*(count-1) (rounded down);
  /// clamped to that bucket and to the exact [min, max]. Guarantee: within
  /// one bucket (≤5% relative error inside the ladder) of that *order
  /// statistic* — i.e. a nearest-rank quantile. This is deliberately not
  /// the linearly-interpolated percentile (which averages two neighbouring
  /// order statistics): when a fractional rank falls in the gap between
  /// two widely-separated latency masses the interpolated figure is a
  /// value no request ever had, and no bounded-resolution sketch can sit
  /// within 5% of it. At ranks inside a mass the two definitions agree to
  /// within the neighbour gap (tests/stats_test.cpp checks against the
  /// interpolated reference on such populations). 0 when empty.
  double quantile(double q) const;

  /// Raw counter access (index in [0, kBuckets)).
  std::uint64_t bucket_count(int index) const;

  /// Bucket index a value lands in: 0 = underflow, 1..kRungs = ladder,
  /// kBuckets-1 = overflow.
  static int bucket_index(double seconds);
  /// Bucket edges: [bucket_lower(i), bucket_upper(i)). The underflow bucket
  /// is [0, kMinSeconds); the overflow bucket's upper edge is reported as
  /// its lower edge (its true extent is unbounded — quantiles there use the
  /// exact max instead).
  static double bucket_lower(int index);
  static double bucket_upper(int index);

  /// Equal bucket counters (used by tests to check merge() exactly).
  bool same_buckets(const LatencyHistogram& other) const {
    return counts_ == other.counts_;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace convbound
