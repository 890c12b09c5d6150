// Tests for counters, histograms, and table rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
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

TEST(LatencyHistogramTest, BasicAggregates) {
  LatencyHistogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(LatencyHistogramTest, EmptyIsSafe) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(LatencyHistogramTest, QuantileBracketsValues) {
  LatencyHistogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    h.record(i);
  }
  // The p50 bucket upper bound must be >= 500 and within a power of two.
  const std::uint64_t p50 = h.quantile(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 1023u);
  EXPECT_GE(h.quantile(1.0), 1000u);
}

TEST(LatencyHistogramTest, TopBucketHoldsValuesFromTwoToTheSixtyThree) {
  // bit_width(v) is 64 for v >= 2^63, one past the 0..63 buckets of the
  // values below it.
  LatencyHistogram h;
  h.record(1ull << 63);
  h.record(~0ull);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_EQ(h.quantile(1.0), std::numeric_limits<std::uint64_t>::max());
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// Dense reference for LatencyHistogram: every bucket kept in a plain
// 65-entry array, as the histogram stored them before it went sparse.
struct DenseHistogram {
  std::array<std::uint64_t, LatencyHistogram::kBucketCount> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;

  void record(std::uint64_t value) {
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
    ++buckets[value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value))];
  }

  std::uint64_t quantile(double q) const {
    if (count == 0) {
      return 0;
    }
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen > target || seen == count) {
        return i >= 64 ? std::numeric_limits<std::uint64_t>::max() : (1ull << i) - 1;
      }
    }
    return max;
  }

  std::size_t distinct_buckets() const {
    return static_cast<std::size_t>(
        std::count_if(buckets.begin(), buckets.end(), [](std::uint64_t n) { return n != 0; }));
  }
};

void expect_matches(const LatencyHistogram& h, const DenseHistogram& ref, const std::string& what) {
  EXPECT_EQ(h.count(), ref.count) << what;
  EXPECT_EQ(h.sum(), ref.sum) << what;
  EXPECT_EQ(h.min(), ref.count == 0 ? 0 : ref.min) << what;
  EXPECT_EQ(h.max(), ref.max) << what;
  EXPECT_EQ(h.mean(), ref.count == 0 ? 0.0
                                     : static_cast<double>(ref.sum) /
                                           static_cast<double>(ref.count))
      << what;
  for (const double q : {0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), ref.quantile(q)) << what << " q=" << q;
  }
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    EXPECT_EQ(h.bucket_count(i), ref.buckets[i]) << what << " bucket " << i;
  }
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

TEST(LatencyHistogramProperty, MatchesDenseReferenceAcrossSpillCopyAndReset) {
  std::mt19937_64 rng(23);
  int stayed_inline = 0;
  int spilled = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Samples come from a pool of 1..9 values, so a trial may stay within
    // the inline buckets or cross the spill point part-way through.
    std::vector<std::uint64_t> pool(1 + trial % 9);
    for (std::uint64_t& value : pool) {
      value = draw_latency(rng);
    }
    LatencyHistogram h;
    DenseHistogram ref;
    const int samples = 1 + static_cast<int>(rng() % 48);
    for (int i = 0; i < samples; ++i) {
      const std::uint64_t value = pool[rng() % pool.size()];
      h.record(value);
      ref.record(value);
      expect_matches(h, ref, "trial " + std::to_string(trial) + " sample " + std::to_string(i));
    }
    (ref.distinct_buckets() > LatencyHistogram::kInlineBuckets ? spilled : stayed_inline) += 1;

    // Copies are deep: each side keeps recording on its own.
    LatencyHistogram copy(h);
    DenseHistogram copy_ref = ref;
    LatencyHistogram assigned;
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

    // reset() returns to the empty state, and the histogram is reusable.
    h.reset();
    expect_matches(h, DenseHistogram{}, "reset, trial " + std::to_string(trial));
    DenseHistogram after_reset;
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t value = pool[rng() % pool.size()];
      h.record(value);
      after_reset.record(value);
    }
    expect_matches(h, after_reset, "after reset, trial " + std::to_string(trial));
  }
  EXPECT_GT(stayed_inline, 50);
  EXPECT_GT(spilled, 50);
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
