#include "src/metrics/histogram.h"

#include <cmath>

namespace pvm {

std::uint64_t MergeableHistogram::bucket_lower_bound(std::uint32_t index) {
  if (index < kSub) {
    return index;
  }
  const unsigned shift = index >> kSubBits;
  // Reconstruct the top bits: implicit leading one plus sub-bucket offset.
  const std::uint64_t top = kSub + (index & (kSub - 1));
  return top << (shift - 1);
}

std::uint64_t MergeableHistogram::bucket_upper_bound(std::uint32_t index) {
  if (index < kSub) {
    return index;
  }
  const unsigned shift = index >> kSubBits;
  const std::uint64_t top = kSub + (index & (kSub - 1));
  return ((top + 1) << (shift - 1)) - 1;
}

void MergeableHistogram::cover(std::uint32_t lo, std::uint32_t hi) {
  if (counts_.empty()) {
    first_ = lo;
    counts_.assign(hi - lo + 1, 0);
    return;
  }
  if (lo < first_) {
    counts_.insert(counts_.begin(), first_ - lo, 0);
    first_ = lo;
  }
  if (hi - first_ >= counts_.size()) {
    counts_.resize(hi - first_ + 1, 0);
  }
}

void MergeableHistogram::merge(const MergeableHistogram& other) {
  if (!other.counts_.empty()) {
    cover(other.first_, other.first_ + static_cast<std::uint32_t>(other.counts_.size()) - 1);
    const std::size_t offset = other.first_ - first_;
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[offset + i] += other.counts_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t MergeableHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q <= 0.0) {
    return min();
  }
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return std::min(bucket_upper_bound(first_ + static_cast<std::uint32_t>(i)), max_);
    }
  }
  return max_;
}

MergeableHistogram MergeableHistogram::from_parts(
    std::uint64_t count, std::uint64_t sum, std::uint64_t min, std::uint64_t max,
    const std::map<std::uint32_t, std::uint64_t>& buckets) {
  MergeableHistogram h;
  for (const auto& [index, n] : buckets) {
    if (n != 0) {
      h.cover(index, index);
      h.counts_[index - h.first_] = n;
    }
  }
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = count == 0 ? std::numeric_limits<std::uint64_t>::max() : min;
  h.max_ = max;
  return h;
}

}  // namespace pvm
