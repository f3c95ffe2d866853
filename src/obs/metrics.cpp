#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "common/error.hpp"

namespace vs::obs {

Histogram::Histogram(std::span<const std::int64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1, 0) {
  VS_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
             "histogram bounds must be ascending");
}

Histogram Histogram::from_parts(std::vector<std::int64_t> bounds,
                                std::vector<std::int64_t> buckets,
                                std::int64_t count, std::int64_t sum,
                                std::int64_t min, std::int64_t max) {
  VS_REQUIRE(buckets.size() == bounds.size() + 1,
             "histogram parts mismatch: " << buckets.size() << " buckets for "
                                          << bounds.size() << " bounds");
  VS_REQUIRE(std::is_sorted(bounds.begin(), bounds.end()),
             "histogram bounds must be ascending");
  Histogram h;
  h.bounds_ = std::move(bounds);
  h.buckets_ = std::move(buckets);
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  return h;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

void Histogram::record(std::int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::vector<std::int64_t> log2_bounds(std::int64_t lo, std::int64_t hi) {
  VS_REQUIRE(lo > 0 && lo <= hi, "log2_bounds requires 0 < lo <= hi");
  std::vector<std::int64_t> bounds;
  std::int64_t b = lo;
  for (;;) {
    bounds.push_back(b);
    if (b >= hi) break;
    VS_REQUIRE(b <= (std::numeric_limits<std::int64_t>::max)() / 2,
               "log2_bounds overflow");
    b *= 2;
  }
  return bounds;
}

std::int64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank (1-based), then the bucket containing it. ceil keeps the
  // top quantiles in the top bucket (p99 of {5, 5000} must land on 5000,
  // not on the last bound).
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] < rank) {
      seen += buckets_[i];
      continue;
    }
    // Linear interpolation across the bucket's value span [lo, hi].
    const std::int64_t lo = i == 0 ? min_ : bounds_[i - 1];
    const std::int64_t hi = i < bounds_.size() ? bounds_[i] : max_;
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(buckets_[i]);
    const auto v = lo + static_cast<std::int64_t>(
                            frac * static_cast<double>(hi - lo));
    return std::clamp(v, min_, max_);
  }
  return max_;
}

void Histogram::to_json(std::ostream& os) const {
  os << "{\"count\": " << count_ << ", \"sum\": " << sum_
     << ", \"min\": " << min_ << ", \"max\": " << max_
     << ", \"p50\": " << percentile(0.50) << ", \"p90\": " << percentile(0.90)
     << ", \"p99\": " << percentile(0.99) << ", \"buckets\": [";
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "{\"le\": ";
    if (i < bounds_.size()) {
      os << bounds_[i];
    } else {
      os << "\"inf\"";
    }
    os << ", \"count\": " << buckets_[i] << "}";
  }
  os << "]}";
}

}  // namespace vs::obs
