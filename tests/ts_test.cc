// pvm::ts tests: mergeable-histogram algebra (associativity, commutativity,
// merge-of-shards == single-stream, quantile error <= one bucket width),
// tumbling-window boundary semantics, the flight-event bridge, the
// pvm.timeseries.v1 round trip, sweep-style prefix+merge determinism, SLO
// evaluation, the pvm-top rendering, and an end-to-end platform smoke run.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/backends/platform.h"
#include "src/obs/flight.h"
#include "src/obs/hist.h"
#include "src/obs/span.h"
#include "src/obs/step.h"
#include "src/obs/ts.h"

namespace pvm::ts {
namespace {

// --- Histogram buckets and quantiles -----------------------------------

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

// --- Window semantics ---------------------------------------------------

TEST(CollectorTest, TumblingWindowBoundaries) {
  std::uint64_t now = 0;
  Collector collector;
  collector.bind(&now);
  collector.set_window(1000);

  now = 0;
  collector.count("c");
  now = 999;
  collector.count("c");  // last ns of window 0
  now = 1000;
  collector.count("c");  // first ns of window 1
  now = 2000;
  collector.count("c");  // window 2; window for [1001, 1999] untouched

  const TsDoc doc = collector.drain();
  const TsSeries& series = doc.series.at("c");
  EXPECT_EQ(series.total, 4);
  ASSERT_EQ(series.windows.size(), 3u);
  EXPECT_EQ(series.windows.at(0), 2);
  EXPECT_EQ(series.windows.at(1), 1);
  EXPECT_EQ(series.windows.at(2), 1);
}

TEST(CollectorTest, GaugeRecordsLevelPerWindowAndFinalTotal) {
  std::uint64_t now = 0;
  Collector collector;
  collector.bind(&now);
  collector.set_window(1000);

  collector.gauge_add("g", 5);
  now = 500;
  collector.gauge_add("g", 3);  // same window: level 8 wins
  now = 2500;
  collector.gauge_add("g", -2);

  const TsDoc doc = collector.drain();
  const TsSeries& series = doc.series.at("g");
  EXPECT_TRUE(series.gauge);
  EXPECT_EQ(series.total, 6);  // final level
  ASSERT_EQ(series.windows.size(), 2u);
  EXPECT_EQ(series.windows.at(0), 8);
  EXPECT_EQ(series.windows.at(2), 6);
}

TEST(CollectorTest, ObserveLandsInTheStampedWindow) {
  Collector collector;
  collector.set_window(1000);
  collector.observe_at("lat", 250, 40);
  collector.observe_at("lat", 1750, 60);

  const TsDoc doc = collector.drain();
  const TsHist& hist = doc.hists.at("lat");
  ASSERT_EQ(hist.windows.size(), 2u);
  EXPECT_EQ(hist.windows.at(0).count(), 1u);
  EXPECT_EQ(hist.windows.at(1).count(), 1u);
  EXPECT_EQ(hist.cumulative().count(), 2u);
  EXPECT_EQ(hist.cumulative().sum(), 100u);
}

TEST(CollectorTest, DrainResetsButKeepsWindowWidth) {
  Collector collector;
  collector.set_window(2000);
  collector.count_at("c", 0);
  const TsDoc first = collector.drain();
  EXPECT_EQ(first.window_ns, 2000u);
  EXPECT_FALSE(first.empty());
  const TsDoc second = collector.drain();
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(second.window_ns, 2000u);
}

// --- Flight-event bridge ------------------------------------------------

TEST(CollectorTest, FlightBridgePairsExitsWithEntries) {
  std::uint64_t now = 0;
  std::int64_t track = 4;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  Collector collector;
  collector.bind(&now);
  recorder.set_ts(&collector);

  now = 100;
  recorder.record(flight::EventKind::kSwitcherExit, 0, 0, /*code=*/1);
  now = 600;
  recorder.record(flight::EventKind::kSwitcherEntry);
  now = 700;
  recorder.record(flight::EventKind::kVmxExit, 0, 0, /*code=*/2);
  now = 1900;
  recorder.record(flight::EventKind::kVmxEntry);
  now = 2000;
  recorder.record(flight::EventKind::kDirectSwitch, 0, /*b=*/130, /*code=*/0);

  const TsDoc doc = collector.drain();
  EXPECT_EQ(doc.series.at("switcher_exits").total, 1);
  EXPECT_EQ(doc.series.at("vmx_exits").total, 1);
  EXPECT_EQ(doc.series.at("direct_switches").total, 1);
  EXPECT_EQ(doc.hists.at("switch_exit_ns").cumulative().sum(), 500u);
  EXPECT_EQ(doc.hists.at("vmx_roundtrip_ns").cumulative().sum(), 1200u);
  EXPECT_EQ(doc.hists.at("direct_switch_ns").cumulative().sum(), 130u);
  // The roundtrip is keyed to the *exit* stamp's window.
  EXPECT_EQ(doc.hists.at("vmx_roundtrip_ns").windows.count(0), 1u);
}

TEST(CollectorTest, FlightBridgeCountsDiscreteKinds) {
  std::uint64_t now = 50;
  std::int64_t track = 1;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  Collector collector;
  collector.bind(&now);
  recorder.set_ts(&collector);

  recorder.record(flight::EventKind::kSptFill, 0, 0, /*code=*/0);
  recorder.record(flight::EventKind::kSptFill, 0, 0, /*code=*/1);
  recorder.record(flight::EventKind::kSptFill, 0, 0, /*code=*/2);
  recorder.record(flight::EventKind::kBulkZap, /*a=*/17);
  recorder.record(flight::EventKind::kReclaim, /*a=*/9);
  recorder.record(flight::EventKind::kLockAcquire, 0, /*b=*/400, /*code=*/1);
  recorder.record(flight::EventKind::kLockAcquire, 0, /*b=*/0, /*code=*/0);
  recorder.record(flight::EventKind::kWatchdog, 0, 0, /*code=*/2);
  recorder.record(flight::EventKind::kOomKill, /*a=*/3);

  const TsDoc doc = collector.drain();
  EXPECT_EQ(doc.series.at("spt_fills").total, 1);
  EXPECT_EQ(doc.series.at("prefault_fills").total, 1);
  EXPECT_EQ(doc.series.at("spt_fill_races").total, 1);
  EXPECT_EQ(doc.series.at("bulk_zaps").total, 1);
  EXPECT_EQ(doc.series.at("zapped_leaves").total, 17);
  EXPECT_EQ(doc.series.at("reclaims").total, 1);
  EXPECT_EQ(doc.series.at("reclaimed_frames").total, 9);
  EXPECT_EQ(doc.series.at("lock_contended").total, 1);
  EXPECT_EQ(doc.hists.at("lock_wait_ns").cumulative().sum(), 400u);
  EXPECT_EQ(doc.series.at("watchdog_kills").total, 1);
  EXPECT_EQ(doc.series.at("oom_kills").total, 1);
  // Uncontended acquires produce no contention row at all.
  EXPECT_EQ(doc.series.count("lock_uncontended"), 0u);
}

TEST(CollectorTest, FlightBridgeBuildsMigrationWindowSeries) {
  std::uint64_t now = 0;
  std::int64_t track = 1;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  Collector collector;
  collector.bind(&now);
  recorder.set_ts(&collector);

  // Two pre-copy rounds, a fallback, and the stop-copy pause — the shape a
  // diverging kAuto migration emits.
  recorder.record(flight::EventKind::kMigrationRound, /*a=*/8192, /*b=*/2000);
  now = 11 * kNsPerMs;
  recorder.record(flight::EventKind::kMigrationRound, /*a=*/2000, /*b=*/2000);
  now = 14 * kNsPerMs;
  recorder.record(flight::EventKind::kMigrationFallback, /*a=*/2000, 0);
  recorder.record(flight::EventKind::kMigrationStopCopy, /*a=*/0, /*b=*/200'000);

  const TsDoc doc = collector.drain();
  EXPECT_EQ(doc.series.at("migration_rounds").total, 2);
  EXPECT_EQ(doc.series.at("migration_pages_copied").total, 8192 + 2000);
  EXPECT_EQ(doc.series.at("migration_pages_dirtied").total, 4000);
  EXPECT_EQ(doc.series.at("migration_fallbacks").total, 1);
  EXPECT_EQ(doc.series.at("migration_stop_copies").total, 1);
  EXPECT_EQ(doc.hists.at("migration_downtime_ns").cumulative().sum(), 200'000u);
}

// --- JSON round trip and merge discipline -------------------------------

TsDoc sample_doc() {
  std::uint64_t now = 0;
  Collector collector;
  collector.bind(&now);
  collector.set_window(1000);
  for (int i = 0; i < 40; ++i) {
    now = static_cast<std::uint64_t>(i) * 137;
    collector.count("events");
    collector.observe("latency_ns", 100 + static_cast<std::uint64_t>(i) * 13);
    if (i % 4 == 0) {
      collector.gauge_add("level", i % 8 == 0 ? 2 : -1);
    }
  }
  return collector.drain();
}

TEST(TimeseriesJsonTest, RoundTripIsByteIdentical) {
  const TsDoc doc = sample_doc();
  const std::string rendered = render_timeseries_json(doc);
  TsDoc reparsed;
  std::string error;
  ASSERT_TRUE(parse_timeseries_json(rendered, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed, doc);
  EXPECT_EQ(render_timeseries_json(reparsed), rendered);
}

TEST(TimeseriesJsonTest, ParseRejectsGarbage) {
  TsDoc doc;
  std::string error;
  EXPECT_FALSE(parse_timeseries_json("{]", &doc, &error));
  EXPECT_FALSE(parse_timeseries_json("{\"schema\":\"pvm.bench.v1\"}", &doc, &error));
}

TEST(TimeseriesMergeTest, PrefixedShardMergeMatchesSingleStream) {
  // Two shards of the same cell coordinate vs one collector fed both
  // streams: after prefixing and merging, the documents are identical —
  // the acceptance bar behind `pvm-matrix --jobs 8` byte-identity.
  std::uint64_t now = 0;
  Collector shard_a;
  Collector shard_b;
  Collector single;
  shard_a.bind(&now);
  shard_b.bind(&now);
  single.bind(&now);
  std::mt19937_64 rng(5);
  for (int i = 0; i < 600; ++i) {
    now = static_cast<std::uint64_t>(rng() % 50) * 1000;
    const std::uint64_t v = rng() % (1ull << (rng() % 32));
    Collector& shard = (i % 2 == 0) ? shard_a : shard_b;
    shard.count("n");
    shard.observe("lat", v);
    single.count("n");
    single.observe("lat", v);
  }

  TsDoc merged;
  std::string error;
  ASSERT_TRUE(merge_timeseries(&merged, prefix_timeseries(shard_a.drain(), "pvm/w/"), &error));
  ASSERT_TRUE(merge_timeseries(&merged, prefix_timeseries(shard_b.drain(), "pvm/w/"), &error));
  const TsDoc expected = prefix_timeseries(single.drain(), "pvm/w/");
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(render_timeseries_json(merged), render_timeseries_json(expected));
}

TEST(TimeseriesMergeTest, MergeOrderInvariantForDisjointCells) {
  std::uint64_t now = 0;
  Collector a;
  Collector b;
  a.bind(&now);
  b.bind(&now);
  a.count("x");
  b.count("x");
  const TsDoc doc_a = prefix_timeseries(a.drain(), "pvm/boot/");
  const TsDoc doc_b = prefix_timeseries(b.drain(), "ept/boot/");

  TsDoc ab;
  TsDoc ba;
  std::string error;
  ASSERT_TRUE(merge_timeseries(&ab, doc_a, &error));
  ASSERT_TRUE(merge_timeseries(&ab, doc_b, &error));
  ASSERT_TRUE(merge_timeseries(&ba, doc_b, &error));
  ASSERT_TRUE(merge_timeseries(&ba, doc_a, &error));
  EXPECT_EQ(render_timeseries_json(ab), render_timeseries_json(ba));
}

TEST(TimeseriesMergeTest, WindowWidthMismatchFails) {
  Collector a;
  Collector b;
  a.set_window(1000);
  b.set_window(2000);
  a.count_at("x", 0);
  b.count_at("x", 0);
  TsDoc merged;
  std::string error;
  ASSERT_TRUE(merge_timeseries(&merged, a.drain(), &error));
  EXPECT_FALSE(merge_timeseries(&merged, b.drain(), &error));
  EXPECT_NE(error.find("window"), std::string::npos);
}

// --- SLO evaluation -----------------------------------------------------

TEST(SloTest, ParseAcceptsUnitsAndScope) {
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(parse_slo_spec("boot:boot_latency_ns:p99<=15ms", &spec, &error)) << error;
  EXPECT_EQ(spec.name, "boot");
  EXPECT_EQ(spec.metric, "boot_latency_ns");
  EXPECT_EQ(spec.quantile, "p99");
  EXPECT_EQ(spec.threshold_ns, 15'000'000u);
  EXPECT_FALSE(spec.per_window);

  ASSERT_TRUE(parse_slo_spec("w:lat:max<=2us:window", &spec, &error)) << error;
  EXPECT_TRUE(spec.per_window);
  EXPECT_EQ(spec.threshold_ns, 2'000u);

  EXPECT_FALSE(parse_slo_spec("", &spec, &error));
  EXPECT_FALSE(parse_slo_spec("no-colons", &spec, &error));
  EXPECT_FALSE(parse_slo_spec("n:m:p42<=1ms", &spec, &error));
  EXPECT_FALSE(parse_slo_spec("n:m:p99<=15parsecs", &spec, &error));
}

TEST(SloTest, EvaluatesRunAndWindowScopes) {
  Collector collector;
  collector.set_window(1000);
  // Window 0: fast. Window 5: one slow outlier.
  for (int i = 0; i < 99; ++i) {
    collector.observe_at("lat", 10, 100);
  }
  collector.observe_at("lat", 5500, 1'000'000);

  TsDoc doc = collector.drain();
  SloSpec run_pass;
  std::string error;
  ASSERT_TRUE(parse_slo_spec("run-pass:lat:p50<=1us", &run_pass, &error));
  SloSpec run_fail;
  ASSERT_TRUE(parse_slo_spec("run-fail:lat:max<=1us", &run_fail, &error));
  SloSpec window_fail;
  ASSERT_TRUE(parse_slo_spec("win-fail:lat:p99<=1us:window", &window_fail, &error));
  SloSpec no_match;
  ASSERT_TRUE(parse_slo_spec("typo:does_not_exist:p99<=1s", &no_match, &error));
  evaluate_slos(&doc, {run_pass, run_fail, window_fail, no_match});

  ASSERT_EQ(doc.slos.size(), 4u);
  EXPECT_TRUE(doc.slos[0].pass);
  EXPECT_FALSE(doc.slos[1].pass);
  EXPECT_FALSE(doc.slos[2].pass);
  EXPECT_EQ(doc.slos[2].worst_window, 5u);
  EXPECT_FALSE(doc.slos[3].pass);  // a typo'd metric must fail loudly
  EXPECT_NE(doc.slos[3].metric.find("no match"), std::string::npos);
}

// --- pvm-top rendering --------------------------------------------------

TEST(RenderTopTest, RendersSparklinesTotalsAndSlos) {
  Collector collector;
  collector.set_window(1000);
  for (int w = 0; w < 8; ++w) {
    collector.count_at("hits", static_cast<std::uint64_t>(w) * 1000, w + 1);
    collector.observe_at("lat_ns", static_cast<std::uint64_t>(w) * 1000,
                         static_cast<std::uint64_t>(100 << w));
  }
  TsDoc doc = collector.drain();
  SloSpec spec;
  std::string error;
  ASSERT_TRUE(parse_slo_spec("gate:lat_ns:p99<=1ms", &spec, &error));
  evaluate_slos(&doc, {spec});

  const std::string a = render_top(doc, TopOptions{});
  EXPECT_EQ(a, render_top(doc, TopOptions{}));  // deterministic
  EXPECT_NE(a.find("pvm-top — pvm.timeseries.v1"), std::string::npos);
  EXPECT_NE(a.find("hits"), std::string::npos);
  EXPECT_NE(a.find("36"), std::string::npos);  // total = 1+..+8
  EXPECT_NE(a.find("LATENCY"), std::string::npos);
  EXPECT_NE(a.find("w7"), std::string::npos);  // worst window
  EXPECT_NE(a.find("PASS"), std::string::npos);

  // Filtering drops non-matching rows.
  TopOptions filter;
  filter.filter = "lat_ns";
  const std::string filtered = render_top(doc, filter);
  EXPECT_EQ(filtered.find("hits"), std::string::npos);
  EXPECT_NE(filtered.find("lat_ns"), std::string::npos);
}

// --- End-to-end platform smoke ------------------------------------------

TsDoc platform_run() {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  Collector collector;
  platform.sim().set_ts(&collector);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(8));
  platform.sim().run();
  return collector.drain();
}

TEST(TimeseriesPlatformTest, BootProducesDeterministicTelemetry) {
  const TsDoc doc = platform_run();
  EXPECT_EQ(doc.series.at("boot_completions").total, 1);
  EXPECT_EQ(doc.hists.at("boot_latency_ns").cumulative().count(), 1u);
  EXPECT_GT(doc.series.at("switcher_exits").total, 0);
  // Same config, same seed: byte-identical telemetry.
  EXPECT_EQ(render_timeseries_json(doc), render_timeseries_json(platform_run()));
}

// The innermost phase of a "op.page_fault;spt_fill;lock_wait" span path.
std::string_view last_phase(const std::string& path) {
  const std::size_t cut = path.rfind(';');
  return cut == std::string::npos ? std::string_view(path)
                                  : std::string_view(path).substr(cut + 1);
}

// Boots one container on `mode` with spans and a ts collector attached, runs
// a few syscalls, and checks the exemplars of every histogram.
void expect_resolvable_exemplars(DeployMode mode) {
  // Declared before the platform: coroutine frames destroyed with the
  // platform may still hold SpanScopes into the recorder.
  obs::SpanRecorder spans;
  spans.set_enabled(true);
  Collector collector;
  PlatformConfig config;
  config.mode = mode;
  VirtualPlatform platform(config);
  // Raise the ring capacity before any track records, so no flight event the
  // exemplars can point at is evicted by wraparound.
  platform.flight().set_capacity(1 << 16);
  platform.sim().set_ts(&collector);
  platform.sim().set_spans(&spans);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(8));
  platform.sim().run();
  // A few syscalls, so PVM also takes direct switches.
  platform.sim().spawn([](SecureContainer& c) -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await c.kernel().sys_getpid(c.vcpu(0), *c.init_process());
    }
  }(container));
  platform.sim().run();
  const TsDoc doc = collector.drain();

  std::set<std::uint64_t> flight_seqs;
  for (const flight::FlightRecorder::Ring& ring : platform.flight().rings()) {
    EXPECT_EQ(ring.dropped(), 0u) << "track " << ring.track;
    for (const auto& event : ring.snapshot()) {
      flight_seqs.insert(event.seq);
    }
  }
  ASSERT_FALSE(flight_seqs.empty());

  // Every histogram bucket that holds samples — the tail bucket included —
  // must carry an exemplar whose seq resolves to a live flight-ring event.
  std::size_t checked = 0;
  for (const auto& [name, hist] : doc.hists) {
    const MergeableHistogram cumulative = hist.cumulative();
    for (const auto& [bucket, n] : cumulative.buckets()) {
      ASSERT_TRUE(hist.exemplars.contains(bucket))
          << name << " bucket " << bucket << " (" << n << " samples) has no exemplar";
      const TsExemplar& exemplar = hist.exemplars.at(bucket);
      EXPECT_TRUE(flight_seqs.contains(exemplar.seq))
          << name << " bucket " << bucket << " exemplar seq " << exemplar.seq
          << " not found in flight rings";
      ++checked;
    }
    const TsExemplar* tail = hist.tail_exemplar();
    ASSERT_NE(tail, nullptr) << name;
    EXPECT_EQ(tail->value, cumulative.max()) << name;
  }
  EXPECT_GT(checked, 0u);

  // The order rule of obs/step.h, as the exemplars show it: switcher steps
  // open their span before recording, VMX steps record first.
  const std::vector<std::string> observed =
      mode == DeployMode::kPvmNst
          ? std::vector<std::string>{"switch_exit_ns", "direct_switch_ns"}
          : std::vector<std::string>{"vmx_roundtrip_ns"};
  for (const std::string& name : observed) {
    ASSERT_TRUE(doc.hists.contains(name)) << name;
  }
  for (const auto& [name, hist] : doc.hists) {
    for (const auto& [bucket, exemplar] : hist.exemplars) {
      if (name == "switch_exit_ns") {
        EXPECT_EQ(last_phase(exemplar.path), "switcher_entry") << exemplar.path;
      } else if (name == "direct_switch_ns") {
        EXPECT_EQ(last_phase(exemplar.path), "direct_switch") << exemplar.path;
      } else if (name == "vmx_roundtrip_ns") {
        EXPECT_NE(last_phase(exemplar.path), "vmx_entry") << exemplar.path;
      }
    }
  }
}

TEST(TimeseriesPlatformTest, EveryTailBucketCarriesAResolvableExemplar) {
  for (const DeployMode mode : {DeployMode::kPvmNst, DeployMode::kKvmEptNst}) {
    SCOPED_TRACE(std::string(deploy_mode_name(mode)));
    expect_resolvable_exemplars(mode);
  }
  // Exit records feed no exemplar, so their order shows nowhere in the
  // output; the table keeps each exit row on its entry's order.
  const auto row = [](flight::EventKind kind) {
    return obs::kSteps[static_cast<std::size_t>(kind)];
  };
  EXPECT_EQ(row(flight::EventKind::kSwitcherExit).span_first,
            row(flight::EventKind::kSwitcherEntry).span_first);
  EXPECT_EQ(row(flight::EventKind::kVmxExit).span_first,
            row(flight::EventKind::kVmxEntry).span_first);
}

}  // namespace
}  // namespace pvm::ts
