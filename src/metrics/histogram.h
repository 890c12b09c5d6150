// Latency statistics: running aggregate plus a log-bucketed histogram.
//
// Used to report operation round-trip latencies (Table 1 / Table 2 style) out
// of the simulation. Buckets double in width so percentiles across the ns..ms
// range stay cheap and allocation free.

#ifndef PVM_SRC_METRICS_HISTOGRAM_H_
#define PVM_SRC_METRICS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

namespace pvm {

class LatencyHistogram {
 public:
  // bucket_index() is bit_width(v): 0 for v = 0 up to 64 for v >= 2^63.
  static constexpr std::size_t kBucketCount = 65;

  void record(std::uint64_t value_ns) {
    ++count_;
    sum_ += value_ns;
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
    ++buckets_[bucket_index(value_ns)];
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Upper bound of the bucket holding the q-quantile (0 < q <= 1). Exact for
  // point distributions (all values equal), approximate otherwise.
  std::uint64_t quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      seen += buckets_[i];
      if (seen > target || seen == count_) {
        return bucket_upper_bound(i);
      }
    }
    return max_;
  }

  void reset() {
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
    max_ = 0;
    buckets_.fill(0);
  }

  static std::size_t bucket_index(std::uint64_t value) {
    if (value == 0) {
      return 0;
    }
    return static_cast<std::size_t>(std::bit_width(value));
  }

  static std::uint64_t bucket_upper_bound(std::size_t index) {
    if (index >= 64) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    return (1ull << index) - 1;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, kBucketCount> buckets_{};
};

}  // namespace pvm

#endif  // PVM_SRC_METRICS_HISTOGRAM_H_
