// pvm::ts tests: tumbling-window boundary semantics, the flight-event
// bridge, the pvm.timeseries.v1 round trip, sweep-style prefix+merge
// determinism, SLO evaluation, the pvm-top rendering, and an end-to-end
// platform smoke run. The histogram's own algebra is tested in
// metrics_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/backends/platform.h"
#include "src/obs/flight.h"
#include "src/obs/span.h"
#include "src/obs/step.h"
#include "src/obs/ts.h"

namespace pvm::ts {
namespace {

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

TEST(TimeseriesJsonTest, ParseRejectsBucketIndexOutOfRange) {
  // Index 600 is past the last bucket (495); taken as an index it would
  // shift a u64 by 74 bits and widen the count vector past every bucket.
  const auto doc_with_bucket = [](std::string_view index) {
    return std::string(R"({"schema":"pvm.timeseries.v1","window_ns":1000,"series":[],)"
                       R"("hists":[{"name":"h","exemplars":[],"windows":[{"w":0,"count":1,)"
                       R"("sum":5,"min":5,"max":5,"buckets":[[)") +
           std::string(index) + R"(,1]]}]}],"slos":[]})";
  };
  TsDoc doc;
  std::string error;
  ASSERT_TRUE(parse_timeseries_json(doc_with_bucket("5"), &doc, &error)) << error;
  EXPECT_EQ(doc.hists.at("h").cumulative().quantile(1.0), 5u);
  for (const std::string_view bad : {"600", "496", "-1", "2.5", "\"7\"", "4294967301"}) {
    EXPECT_FALSE(parse_timeseries_json(doc_with_bucket(bad), &doc, &error)) << bad;
    EXPECT_EQ(error, "malformed hist bucket") << bad;
  }

  // Every other integer is checked as well: a negative count, a fractional
  // sum and an exemplar past the last bucket are malformed, not wrapped to
  // 2^64 - 1, truncated or kept. A series window, which may be negative,
  // reads as a signed integer.
  const auto doc_with = [](std::string_view count, std::string_view sum,
                           std::string_view exemplar_bucket) {
    return std::string(R"({"schema":"pvm.timeseries.v1","window_ns":1000,)"
                       R"("series":[{"name":"g","kind":"gauge","windows":[[0,-3]]}],)"
                       R"("hists":[{"name":"h","exemplars":[{"bucket":)") +
           std::string(exemplar_bucket) + R"(,"value":5,"seq":0}],"windows":[{"w":0,"count":)" +
           std::string(count) + R"(,"sum":)" + std::string(sum) +
           R"(,"min":5,"max":5,"buckets":[[5,1]]}]}],"slos":[]})";
  };
  ASSERT_TRUE(parse_timeseries_json(doc_with("1", "5", "5"), &doc, &error)) << error;
  EXPECT_EQ(doc.series.at("g").windows.at(0), -3);
  EXPECT_FALSE(parse_timeseries_json(doc_with("-1", "5", "5"), &doc, &error));
  EXPECT_EQ(error, "malformed hist window");
  EXPECT_FALSE(parse_timeseries_json(doc_with("1", "2.5", "5"), &doc, &error));
  EXPECT_EQ(error, "malformed hist window");
  EXPECT_FALSE(parse_timeseries_json(doc_with("1", "5", "900"), &doc, &error));
  EXPECT_EQ(error, "malformed hist exemplar");
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
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
    cumulative.for_each_bucket(
        [&buckets](std::uint32_t bucket, std::uint64_t n) { buckets.emplace_back(bucket, n); });
    for (const auto& [bucket, n] : buckets) {
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
