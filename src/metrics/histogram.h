// Latency histogram: running aggregate plus mergeable log-bucketed counts.
//
// The one histogram every latency goes through: lock classes' wait and hold
// times, span operation latencies (Table 1 / Table 2 style), pvm-stat rows,
// LMbench tails, and the timeseries, profile and fleet documents.
//
// Values land in fixed, data-independent buckets (HDR-style): exact below
// 2^kSubBits, then 2^kSubBits sub-buckets per power of two, so above 8 a
// bucket is an eighth of an octave wide. Fixed boundaries make merge()
// element-wise addition — associative, commutative, and byte-reproducible —
// so sharded sweeps can aggregate per-shard histograms and get exactly the
// histogram a single-stream run would have produced. quantile() is exact to
// one bucket width (relative error <= 2^-kSubBits = 12.5%) and never reports
// more than the largest sample.
//
// No samples are stored. The counts live in one flat vector over the
// touched index range, whose first and last counts are never zero: a record
// inside the range is an index computation and an add, and the range grows
// only when a sample lands outside it (at most kMaxIndex + 1 slots).

#ifndef PVM_SRC_METRICS_HISTOGRAM_H_
#define PVM_SRC_METRICS_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

namespace pvm {

class MergeableHistogram {
 public:
  // Sub-bucket resolution: each power-of-two range splits into 2^kSubBits
  // buckets, bounding quantile error to one part in 2^kSubBits.
  static constexpr unsigned kSubBits = 3;
  // The largest bucket index, bucket_index(~0ull).
  static constexpr std::uint32_t kMaxIndex = 495;

  // Bucket index for value `v`. Total order preserving: v <= w implies
  // bucket_index(v) <= bucket_index(w).
  static constexpr std::uint32_t bucket_index(std::uint64_t v) {
    if (v < kSub) {
      return static_cast<std::uint32_t>(v);
    }
    // v in [2^e, 2^(e+1)): keep the top kSubBits+1 bits; the leading bit is
    // implicit in the exponent, the rest select the sub-bucket.
    const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return static_cast<std::uint32_t>((shift << kSubBits) + (v >> shift));
  }

  // True if `x`, a number read from a document, names a bucket: an integer
  // in [0, kMaxIndex]. Imports check every index before from_parts().
  static bool is_bucket_index(double x) {
    return x >= 0.0 && x <= kMaxIndex && x == static_cast<double>(static_cast<std::uint32_t>(x));
  }

  // Smallest / largest value mapping to bucket `index` (<= kMaxIndex).
  static std::uint64_t bucket_lower_bound(std::uint32_t index);
  static std::uint64_t bucket_upper_bound(std::uint32_t index);

  void record(std::uint64_t value, std::uint64_t weight = 1) {
    if (weight == 0) {
      return;
    }
    const std::uint32_t index = bucket_index(value);
    // Wraps past the range's size when index < first_.
    const std::size_t slot = index - first_;
    if (slot < counts_.size()) {
      counts_[slot] += weight;
    } else {
      cover(index, index);
      counts_[index - first_] = weight;
    }
    count_ += weight;
    sum_ += value * weight;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  // Element-wise bucket addition plus count/sum/min/max combination.
  void merge(const MergeableHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Value at quantile q in [0, 1]: upper bound of the bucket holding the
  // rank-ceil(q*count) sample, clamped to the observed max so point
  // distributions and q=1 report exactly. Returns 0 on an empty histogram.
  std::uint64_t quantile(double q) const;

  // Visits every nonzero bucket as fn(index, count), ascending by index.
  template <typename Fn>
  void for_each_bucket(Fn fn) const {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] != 0) {
        fn(static_cast<std::uint32_t>(first_ + i), counts_[i]);
      }
    }
  }

  void reset() { *this = MergeableHistogram(); }

  // Rebuilds a histogram from serialized parts (JSON import); every index
  // must be at most kMaxIndex. min/max are carried explicitly because bucket
  // bounds only bracket them.
  static MergeableHistogram from_parts(std::uint64_t count, std::uint64_t sum,
                                       std::uint64_t min, std::uint64_t max,
                                       const std::map<std::uint32_t, std::uint64_t>& buckets);

  // Equal statistics and equal nonzero buckets: the range's ends are never
  // zero, so equal contents store equal vectors.
  bool operator==(const MergeableHistogram&) const = default;

 private:
  static constexpr std::uint64_t kSub = 1ull << kSubBits;

  // Widens the counted range to include [lo, hi], with zero counts in the
  // new slots; the caller then puts nonzero counts at any new end.
  void cover(std::uint32_t lo, std::uint32_t hi);

  std::vector<std::uint64_t> counts_;  // counts_[i] is bucket first_ + i
  std::uint32_t first_ = 0;            // 0 while counts_ is empty
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

static_assert(MergeableHistogram::bucket_index(~0ull) == MergeableHistogram::kMaxIndex);

}  // namespace pvm

#endif  // PVM_SRC_METRICS_HISTOGRAM_H_
