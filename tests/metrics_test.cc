// Tests for counters, histograms, and table rendering.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string_view>

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
