// Latency statistics: running aggregate plus a log-bucketed histogram.
//
// Used to report operation round-trip latencies (Table 1 / Table 2 style) out
// of the simulation, and every lock class's hold and wait times. Buckets
// double in width so percentiles across the ns..ms range stay cheap.
//
// Most histograms see only a few distinct buckets, so the bucket counts live
// sparsely in place: up to kInlineBuckets (bucket, count) pairs, spilling to
// a heap array of all 65 buckets when a new bucket arrives and the pairs are
// full. Every statistic reads the same either way.

#ifndef PVM_SRC_METRICS_HISTOGRAM_H_
#define PVM_SRC_METRICS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>

namespace pvm {

class LatencyHistogram {
 public:
  // bucket_index() is bit_width(v): 0 for v = 0 up to 64 for v >= 2^63.
  static constexpr std::size_t kBucketCount = 65;
  // The most (bucket, count) pairs that keep the histogram at 80 bytes.
  static constexpr std::size_t kInlineBuckets = 4;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other)
      : count_(other.count_),
        sum_(other.sum_),
        min_(other.min_),
        max_(other.max_),
        inline_counts_(other.inline_counts_),
        inline_buckets_(other.inline_buckets_),
        inline_used_(other.inline_used_),
        dense_(other.dense_ ? std::make_unique<DenseBuckets>(*other.dense_) : nullptr) {}
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) {
      *this = LatencyHistogram(other);
    }
    return *this;
  }
  LatencyHistogram(LatencyHistogram&&) noexcept = default;
  LatencyHistogram& operator=(LatencyHistogram&&) noexcept = default;

  void record(std::uint64_t value_ns) {
    ++count_;
    sum_ += value_ns;
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
    add_to_bucket(bucket_index(value_ns));
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Samples recorded into bucket `index` (< kBucketCount).
  std::uint64_t bucket_count(std::size_t index) const {
    if (dense_) {
      return (*dense_)[index];
    }
    for (std::uint8_t i = 0; i < inline_used_; ++i) {
      if (inline_buckets_[i] == index) {
        return inline_counts_[i];
      }
    }
    return 0;
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
      seen += bucket_count(i);
      if (seen > target || seen == count_) {
        return bucket_upper_bound(i);
      }
    }
    return max_;
  }

  void reset() { *this = LatencyHistogram(); }

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
  using DenseBuckets = std::array<std::uint64_t, kBucketCount>;

  void add_to_bucket(std::size_t index) {
    if (dense_) {
      ++(*dense_)[index];
      return;
    }
    for (std::uint8_t i = 0; i < inline_used_; ++i) {
      if (inline_buckets_[i] == index) {
        ++inline_counts_[i];
        return;
      }
    }
    if (inline_used_ < kInlineBuckets) {
      inline_buckets_[inline_used_] = static_cast<std::uint8_t>(index);
      inline_counts_[inline_used_] = 1;
      ++inline_used_;
      return;
    }
    dense_ = std::make_unique<DenseBuckets>();
    for (std::uint8_t i = 0; i < inline_used_; ++i) {
      (*dense_)[inline_buckets_[i]] = inline_counts_[i];
    }
    ++(*dense_)[index];
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
  // Sparse counts, in first-use order; unused once dense_ exists.
  std::array<std::uint64_t, kInlineBuckets> inline_counts_{};
  std::array<std::uint8_t, kInlineBuckets> inline_buckets_{};
  std::uint8_t inline_used_ = 0;
  std::unique_ptr<DenseBuckets> dense_;
};

}  // namespace pvm

#endif  // PVM_SRC_METRICS_HISTOGRAM_H_
