#pragma once
// Fixed-bound histograms: the find census's latency distribution and the
// SLO monitor's latency currency. The metrics schema itself — every named
// counter and gauge — is the series table in tracking/series.hpp.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace vs::obs {

/// Fixed-bound histogram: counts of values v ≤ bound per bucket, plus an
/// implicit +inf bucket, with running count/sum/min/max.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::span<const std::int64_t> bounds);

  /// Reconstruct from serialized parts (the VSSLO1 sidecar reader).
  /// Requires buckets.size() == bounds.size() + 1 and consistent tallies.
  [[nodiscard]] static Histogram from_parts(std::vector<std::int64_t> bounds,
                                            std::vector<std::int64_t> buckets,
                                            std::int64_t count,
                                            std::int64_t sum, std::int64_t min,
                                            std::int64_t max);

  void record(std::int64_t value);
  /// Zero every tally, keeping the bucket layout — lets a periodic
  /// sampler reuse one histogram instead of reallocating per sample.
  void reset();

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::int64_t>& buckets() const {
    return buckets_;
  }

  /// Bucket-interpolated quantile estimate for q in [0, 1]: walks to the
  /// bucket holding the q-th recorded value and interpolates linearly
  /// inside it, clamped to the observed [min, max] (so the estimate of an
  /// overflow-bucket quantile is max, not +inf). 0 when count() == 0.
  [[nodiscard]] std::int64_t percentile(double q) const;

  void to_json(std::ostream& os) const;

 private:
  std::vector<std::int64_t> bounds_;   // ascending, upper-inclusive
  std::vector<std::int64_t> buckets_;  // bounds_.size() + 1
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Power-of-two ("log-bucketed") histogram bounds: lo, 2·lo, 4·lo, ...
/// up to the first bound >= hi. Constant relative resolution across the
/// whole range — the right layout for latencies, where p50 and p99 can sit
/// orders of magnitude apart. Requires 0 < lo <= hi.
[[nodiscard]] std::vector<std::int64_t> log2_bounds(std::int64_t lo,
                                                    std::int64_t hi);

}  // namespace vs::obs
