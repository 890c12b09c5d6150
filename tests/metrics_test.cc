// Tests for counters, the latency histogram (aggregates, bucket bounds,
// quantile error, merge algebra, flat storage against a map reference),
// and table rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/metrics/counters.h"
#include "src/metrics/histogram.h"
#include "src/metrics/table.h"

namespace pvm {
namespace {

TEST(CounterSetTest, StartsZeroAndAccumulates) {
  CounterSet counters;
  EXPECT_EQ(counters.get(Counter::kWorldSwitch), 0u);
  counters.add(Counter::kWorldSwitch);
  counters.add(Counter::kWorldSwitch, 5);
  EXPECT_EQ(counters.get(Counter::kWorldSwitch), 6u);
  counters.reset();
  EXPECT_EQ(counters.get(Counter::kWorldSwitch), 0u);
}

TEST(CounterSetTest, DeltaSinceSnapshot) {
  CounterSet counters;
  counters.add(Counter::kL0Exit, 10);
  const CounterSet snapshot = counters;
  counters.add(Counter::kL0Exit, 7);
  counters.add(Counter::kTlbMiss, 3);
  const CounterSet delta = counters.delta_since(snapshot);
  EXPECT_EQ(delta.get(Counter::kL0Exit), 7u);
  EXPECT_EQ(delta.get(Counter::kTlbMiss), 3u);
  EXPECT_EQ(delta.get(Counter::kWorldSwitch), 0u);
}

TEST(CounterSetTest, EveryCounterHasAName) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_NE(counter_name(static_cast<Counter>(i)), "unknown") << "counter index " << i;
  }
}

TEST(CounterSetTest, CounterNamesDistinctAndNonEmpty) {
  std::set<std::string_view> seen;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string_view name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty()) << "counter index " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate counter name: " << name;
  }
}

TEST(CounterSetTest, DeltaSinceSaturatesAtZero) {
  // A reset() between the snapshot and the delta used to wrap the subtraction
  // to ~2^64; it must read as zero progress instead.
  CounterSet counters;
  counters.add(Counter::kL0Exit, 10);
  const CounterSet snapshot = counters;
  counters.reset();
  counters.add(Counter::kL0Exit, 3);
  counters.add(Counter::kTlbMiss, 2);
  const CounterSet delta = counters.delta_since(snapshot);
  EXPECT_EQ(delta.get(Counter::kL0Exit), 0u);
  EXPECT_EQ(delta.get(Counter::kTlbMiss), 2u);
}

// --- Histogram aggregates, buckets and quantiles ------------------------

TEST(MergeableHistogramTest, BasicAggregates) {
  MergeableHistogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(MergeableHistogramTest, EmptyIsSafe) {
  MergeableHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(MergeableHistogramTest, QuantileBracketsValues) {
  MergeableHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    h.record(i);
  }
  // The p50 bucket's upper bound is >= 500 and within an eighth of an octave.
  const std::uint64_t p50 = h.quantile(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / 8);
  // Clamped to the largest sample, never a bucket bound above it.
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

TEST(MergeableHistogramTest, TopBucketHoldsValuesFromTwoToTheSixtyThree) {
  // ~0ull lands in the last bucket, kMaxIndex.
  MergeableHistogram h;
  h.record(1ull << 63);
  h.record(~0ull);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_EQ(MergeableHistogram::bucket_index(~0ull), MergeableHistogram::kMaxIndex);
  EXPECT_EQ(h.quantile(0.5),
            MergeableHistogram::bucket_upper_bound(MergeableHistogram::bucket_index(1ull << 63)));
  EXPECT_EQ(h.quantile(1.0), std::numeric_limits<std::uint64_t>::max());
}

TEST(MergeableHistogramTest, ResetClears) {
  MergeableHistogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h, MergeableHistogram());
}

TEST(MergeableHistogramTest, SmallValuesAreExact) {
  MergeableHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) {
    // Below 2^kSubBits every value has its own bucket.
    EXPECT_EQ(MergeableHistogram::bucket_lower_bound(MergeableHistogram::bucket_index(v)),
              v);
    EXPECT_EQ(MergeableHistogram::bucket_upper_bound(MergeableHistogram::bucket_index(v)),
              v);
    h.record(v);
  }
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 28u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 3u);
  EXPECT_EQ(h.quantile(1.0), 7u);
}

TEST(MergeableHistogramTest, BucketBoundsBracketEveryMagnitude) {
  // Total-order preservation plus tight brackets, across every power of two
  // including the top of the u64 range.
  std::vector<std::uint64_t> probes;
  for (unsigned shift = 0; shift < 64; ++shift) {
    const std::uint64_t p = std::uint64_t{1} << shift;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
  }
  std::sort(probes.begin(), probes.end());
  std::uint32_t last_index = 0;
  for (const std::uint64_t v : probes) {
    const std::uint32_t index = MergeableHistogram::bucket_index(v);
    EXPECT_GE(index, last_index) << "v=" << v;
    last_index = index;
    EXPECT_LE(MergeableHistogram::bucket_lower_bound(index), v);
    EXPECT_GE(MergeableHistogram::bucket_upper_bound(index), v);
  }
  EXPECT_EQ(MergeableHistogram::bucket_upper_bound(
                MergeableHistogram::bucket_index(~std::uint64_t{0})),
            ~std::uint64_t{0});
}

TEST(MergeableHistogramTest, QuantileWithinOneBucketWidth) {
  std::mt19937_64 rng(2024);
  std::vector<std::uint64_t> samples;
  MergeableHistogram h;
  for (int i = 0; i < 5000; ++i) {
    // Mixed magnitudes: exact region, mid-range, and large values.
    const std::uint64_t v = (rng() % 3 == 0) ? rng() % 8 : rng() % (1ull << (8 + rng() % 40));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
    if (rank == 0) {
      rank = 1;
    }
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t reported = h.quantile(q);
    // The report is the upper bound of the exact sample's bucket (clamped to
    // the observed max): never below the exact value, never beyond its
    // bucket's width.
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported,
              MergeableHistogram::bucket_upper_bound(MergeableHistogram::bucket_index(exact)))
        << "q=" << q;
  }
}

TEST(MergeableHistogramTest, PointDistributionReportsExactly) {
  MergeableHistogram h;
  h.record(378105, 150);
  EXPECT_EQ(h.quantile(0.5), 378105u);
  EXPECT_EQ(h.quantile(0.99), 378105u);
  EXPECT_EQ(h.quantile(1.0), 378105u);
}

// --- Merge algebra ------------------------------------------------------

MergeableHistogram random_hist(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  MergeableHistogram h;
  for (int i = 0; i < n; ++i) {
    h.record(rng() % (1ull << (rng() % 48)));
  }
  return h;
}

TEST(MergeableHistogramTest, MergeIsCommutativeAndAssociative) {
  const MergeableHistogram a = random_hist(1, 400);
  const MergeableHistogram b = random_hist(2, 300);
  const MergeableHistogram c = random_hist(3, 500);

  MergeableHistogram ab = a;
  ab.merge(b);
  MergeableHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  MergeableHistogram ab_c = ab;
  ab_c.merge(c);
  MergeableHistogram bc = b;
  bc.merge(c);
  MergeableHistogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
}

TEST(MergeableHistogramTest, MergedShardsEqualSingleStream) {
  std::mt19937_64 rng(77);
  MergeableHistogram single;
  std::vector<MergeableHistogram> shards(8);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t v = rng() % (1ull << (rng() % 40));
    single.record(v);
    shards[i % 8].record(v);  // round-robin, like a --jobs 8 sweep
  }
  MergeableHistogram merged;
  for (const MergeableHistogram& shard : shards) {
    merged.merge(shard);
  }
  EXPECT_EQ(merged, single);
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(merged.quantile(q), single.quantile(q));
  }
}

// --- Flat storage against a map reference -------------------------------

// Reference for the flat counts: the sparse (index -> count) map the
// histogram stored before it went flat, with the same clamped quantile.
struct MapHistogram {
  std::map<std::uint32_t, std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;

  void record(std::uint64_t value) {
    ++buckets[MergeableHistogram::bucket_index(value)];
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }

  void merge(const MapHistogram& other) {
    for (const auto& [index, n] : other.buckets) {
      buckets[index] += n;
    }
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }

  std::uint64_t quantile(double q) const {
    if (count == 0) {
      return 0;
    }
    if (q <= 0.0) {
      return min;
    }
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))), 1, count);
    std::uint64_t seen = 0;
    for (const auto& [index, n] : buckets) {
      seen += n;
      if (seen >= rank) {
        return std::min(MergeableHistogram::bucket_upper_bound(index), max);
      }
    }
    return max;
  }
};

void expect_matches(const MergeableHistogram& h, const MapHistogram& ref, const std::string& what) {
  EXPECT_EQ(h.count(), ref.count) << what;
  EXPECT_EQ(h.sum(), ref.sum) << what;
  EXPECT_EQ(h.min(), ref.count == 0 ? 0 : ref.min) << what;
  EXPECT_EQ(h.max(), ref.max) << what;
  EXPECT_EQ(h.mean(), ref.count == 0 ? 0.0
                                     : static_cast<double>(ref.sum) /
                                           static_cast<double>(ref.count))
      << what;
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), ref.quantile(q)) << what << " q=" << q;
  }
  // Nonzero buckets only, ascending.
  std::map<std::uint32_t, std::uint64_t> visited;
  std::int64_t last = -1;
  h.for_each_bucket([&](std::uint32_t index, std::uint64_t n) {
    EXPECT_GT(static_cast<std::int64_t>(index), last) << what;
    EXPECT_NE(n, 0u) << what;
    last = index;
    visited[index] = n;
  });
  EXPECT_EQ(visited, ref.buckets) << what;
  // from_parts rebuilds an equal histogram, and a zero count adds nothing.
  std::map<std::uint32_t, std::uint64_t> with_zero = ref.buckets;
  with_zero.emplace(MergeableHistogram::kMaxIndex, 0);
  with_zero.emplace(0, 0);
  EXPECT_EQ(MergeableHistogram::from_parts(ref.count, ref.sum, ref.min, ref.max, with_zero), h)
      << what;
}

// 0, powers of two and their neighbours, values at or above 2^63, and
// values spread over every bucket.
std::uint64_t draw_latency(std::mt19937_64& rng) {
  const int shift = static_cast<int>(rng() % 64);
  switch (rng() % 6) {
    case 0:
      return 0;
    case 1:
      return 1ull << shift;
    case 2:
      return (1ull << shift) - 1;
    case 3:
      return (1ull << shift) + 1;
    case 4:
      return (1ull << 63) | rng();
    default:
      return rng() >> shift;
  }
}

TEST(MergeableHistogramProperty, MatchesMapReferenceAcrossMergeCopyAndFromParts) {
  std::mt19937_64 rng(23);
  int grew_downward = 0;
  int top_values = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Samples come from a pool of 1..9 values, so a trial may stay within
    // a few buckets or keep widening its range in both directions.
    std::vector<std::uint64_t> pool(1 + trial % 9);
    for (std::uint64_t& value : pool) {
      value = draw_latency(rng);
    }
    MergeableHistogram h;
    MapHistogram ref;
    const int samples = 1 + static_cast<int>(rng() % 48);
    for (int i = 0; i < samples; ++i) {
      const std::uint64_t value = pool[rng() % pool.size()];
      if (!ref.buckets.empty() &&
          MergeableHistogram::bucket_index(value) < ref.buckets.begin()->first) {
        ++grew_downward;
      }
      top_values += value >= (1ull << 63) ? 1 : 0;
      h.record(value);
      ref.record(value);
      expect_matches(h, ref, "trial " + std::to_string(trial) + " sample " + std::to_string(i));
    }

    // Copies are deep: each side keeps recording on its own.
    MergeableHistogram copy(h);
    MapHistogram copy_ref = ref;
    MergeableHistogram assigned;
    assigned.record(7);
    assigned = h;
    for (int i = 0; i < 6; ++i) {
      const std::uint64_t value = draw_latency(rng);
      copy.record(value);
      copy_ref.record(value);
    }
    expect_matches(h, ref, "original after copy, trial " + std::to_string(trial));
    expect_matches(assigned, ref, "assigned, trial " + std::to_string(trial));
    expect_matches(copy, copy_ref, "copy, trial " + std::to_string(trial));
    EXPECT_EQ(assigned, h);
    EXPECT_NE(copy, h);

    // Merging in either order, or into an empty histogram, matches the
    // reference merge; equal contents compare equal however they were built.
    MergeableHistogram merged = h;
    merged.merge(copy);
    MapHistogram merged_ref = ref;
    merged_ref.merge(copy_ref);
    expect_matches(merged, merged_ref, "merged, trial " + std::to_string(trial));
    MergeableHistogram other_way = copy;
    other_way.merge(h);
    EXPECT_EQ(other_way, merged) << "trial " << trial;
    MergeableHistogram from_empty;
    from_empty.merge(h);
    EXPECT_EQ(from_empty, h) << "trial " << trial;
    h.merge(MergeableHistogram());
    expect_matches(h, ref, "merged with empty, trial " + std::to_string(trial));

    // reset() returns to the empty state, and the histogram is reusable.
    h.reset();
    expect_matches(h, MapHistogram{}, "reset, trial " + std::to_string(trial));
    MapHistogram after_reset;
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t value = pool[rng() % pool.size()];
      h.record(value);
      after_reset.record(value);
    }
    expect_matches(h, after_reset, "after reset, trial " + std::to_string(trial));
  }
  EXPECT_GT(grew_downward, 50);
  EXPECT_GT(top_values, 50);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"config", "value"});
  table.add_row({"kvm-ept (BM)", "0.46"});
  table.add_row({"pvm (NST)", "0.48"});
  const std::string out = table.render();
  EXPECT_NE(out.find("config"), std::string::npos);
  EXPECT_NE(out.find("kvm-ept (BM)"), std::string::npos);
  EXPECT_NE(out.find("0.48"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"x"});
  EXPECT_NO_THROW(table.render());
}

TEST(TextTableTest, CellFormatters) {
  EXPECT_EQ(TextTable::cell(1.234, 2), "1.23");
  EXPECT_EQ(TextTable::cell(std::uint64_t{42}), "42");
}

}  // namespace
}  // namespace pvm
