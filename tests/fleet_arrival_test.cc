// Statistical harness for the pvm::fleet arrival processes.
//
// Every check runs under a fixed seed, so the "statistical" assertions are
// really deterministic regressions: the tolerances are sized from the
// usual sampling-error bounds (~1/sqrt(n) for means, the 5% KS critical
// value for distribution shape), but once a seed passes it passes forever.
// What the suite pins down:
//   - the det_* math kernels agree with libm to ~1e-12 relative (they must
//     be *accurate*, not merely deterministic, or the processes drift from
//     their nominal rates),
//   - seeded Poisson / diurnal / burst streams hit their expected count,
//     mean, variance, and (for Poisson) the exponential gap law,
//   - identical seeds replay identical streams, and the stateless
//     placement shards a stream without loss or duplication,
//   - per-node telemetry shards merge order-independently and a parallel
//     fleet run renders byte-identically to serial (--jobs 1/2/8).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/arrival.h"
#include "src/fleet/fleet.h"
#include "src/obs/ts.h"

namespace pvm::fleet {
namespace {

// --- det_* math kernels ---

TEST(DetMathTest, LogMatchesLibm) {
  for (const double x : {1e-300, 1e-12, 0.1, 0.5, 0.9999, 1.0, 1.0001, 2.0,
                         10.0, 12345.678, 1e12, 1e300}) {
    const double got = det_log(x);
    const double want = std::log(x);
    EXPECT_NEAR(got, want, std::abs(want) * 1e-12 + 1e-14) << "x=" << x;
  }
  EXPECT_THROW(det_log(0.0), std::domain_error);
  EXPECT_THROW(det_log(-1.0), std::domain_error);
}

TEST(DetMathTest, ExpMatchesLibm) {
  for (const double x : {-700.0, -20.0, -1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0,
                         2.0, 20.0, 700.0}) {
    const double got = det_exp(x);
    const double want = std::exp(x);
    EXPECT_NEAR(got, want, std::abs(want) * 1e-12) << "x=" << x;
  }
  EXPECT_EQ(det_exp(-1000.0), 0.0);
  EXPECT_TRUE(std::isinf(det_exp(1000.0)));
}

TEST(DetMathTest, ExpLogRoundTrip) {
  for (const double x : {1e-6, 0.25, 1.0, 3.5, 1e6}) {
    EXPECT_NEAR(det_exp(det_log(x)), x, x * 1e-12) << "x=" << x;
  }
}

TEST(DetMathTest, SinTurnsMatchesLibm) {
  for (double turns = -2.0; turns <= 2.0; turns += 0.03125) {
    const double want = std::sin(2.0 * M_PI * turns);
    EXPECT_NEAR(det_sin_turns(turns), want, 1e-12) << "turns=" << turns;
  }
  // Exact zeros at integer and half-integer turns (floor folding, no
  // residual rounding like 2*pi*k would give).
  EXPECT_EQ(det_sin_turns(0.0), 0.0);
  EXPECT_EQ(det_sin_turns(1.0), 0.0);
  EXPECT_EQ(det_sin_turns(-3.0), 0.0);
}

// --- Poisson: count, moments, and the exponential gap law ---

std::vector<double> gaps_of(const std::vector<std::uint64_t>& arrivals) {
  std::vector<double> gaps;
  gaps.reserve(arrivals.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t t : arrivals) {
    gaps.push_back(static_cast<double>(t - prev));
    prev = t;
  }
  return gaps;
}

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance_of(const std::vector<double>& xs, double mean) {
  double sum = 0.0;
  for (const double x : xs) sum += (x - mean) * (x - mean);
  return sum / static_cast<double>(xs.size() - 1);
}

TEST(ArrivalStatsTest, PoissonGapMomentsMatchExponential) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_sec = 2000.0;
  spec.seed = 42;
  constexpr std::size_t kN = 20000;
  const std::vector<std::uint64_t> arrivals = generate_arrivals(spec, kN);
  ASSERT_EQ(arrivals.size(), kN);
  ASSERT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));

  // Exponential gaps at rate 2000/s: mean 1/rate = 500us, sd = mean.
  const double expected_mean_ns = 1e9 / spec.rate_per_sec;
  const std::vector<double> gaps = gaps_of(arrivals);
  const double mean = mean_of(gaps);
  const double var = variance_of(gaps, mean);
  // Sampling error ~ mean/sqrt(n) ≈ 0.7%; allow 3%.
  EXPECT_NEAR(mean, expected_mean_ns, expected_mean_ns * 0.03);
  // Var[Exp] = mean^2; the variance estimator is noisier — allow 10%.
  EXPECT_NEAR(var, expected_mean_ns * expected_mean_ns,
              expected_mean_ns * expected_mean_ns * 0.10);

  // Count check: arrivals in the first virtual second ≈ rate.
  const std::uint64_t in_first_second =
      static_cast<std::uint64_t>(std::count_if(
          arrivals.begin(), arrivals.end(),
          [](std::uint64_t t) { return t < 1'000'000'000ull; }));
  EXPECT_NEAR(static_cast<double>(in_first_second), spec.rate_per_sec,
              spec.rate_per_sec * 0.05);
}

TEST(ArrivalStatsTest, PoissonGapsPassKolmogorovSmirnov) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_sec = 1000.0;
  spec.seed = 7;
  constexpr std::size_t kN = 20000;
  const std::vector<std::uint64_t> arrivals = generate_arrivals(spec, kN);

  // Probability-integral transform: U = 1 - exp(-lambda * gap) must be
  // uniform on [0,1). KS distance against the uniform CDF; the 5% critical
  // value is 1.36/sqrt(n) ≈ 0.0096 — 0.015 leaves deterministic headroom.
  const double lambda_per_ns = spec.rate_per_sec / 1e9;
  std::vector<double> u;
  for (const double gap : gaps_of(arrivals)) {
    u.push_back(1.0 - det_exp(-lambda_per_ns * gap));
  }
  std::sort(u.begin(), u.end());
  double ks = 0.0;
  const double n = static_cast<double>(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    ks = std::max(ks, std::max(std::abs(u[i] - lo), std::abs(u[i] - hi)));
  }
  EXPECT_LT(ks, 0.015);
}

TEST(ArrivalStatsTest, DiurnalTracksTheSinusoid) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kDiurnal;
  spec.rate_per_sec = 2000.0;
  spec.amplitude = 0.8;
  spec.period_ns = 1'000'000'000ull;
  spec.seed = 11;
  constexpr std::size_t kN = 12000;
  const std::vector<std::uint64_t> arrivals = generate_arrivals(spec, kN);
  ASSERT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));

  // Only whole periods, so the sinusoid integrates to zero and the
  // long-run rate is the nominal one.
  const std::uint64_t periods = arrivals.back() / spec.period_ns;
  ASSERT_GE(periods, 3u);
  std::uint64_t total = 0, rising_half = 0;
  for (const std::uint64_t t : arrivals) {
    if (t >= periods * spec.period_ns) break;
    ++total;
    if (t % spec.period_ns < spec.period_ns / 2) ++rising_half;
  }
  const double expected = spec.rate_per_sec * static_cast<double>(periods) *
                          (static_cast<double>(spec.period_ns) / 1e9);
  EXPECT_NEAR(static_cast<double>(total), expected, expected * 0.05);

  // Mean rate over the positive half-wave is rate*(1 + 2A/pi), over the
  // negative half rate*(1 - 2A/pi); at A=0.8 the ratio is ≈ 3.1.
  const std::uint64_t falling_half = total - rising_half;
  ASSERT_GT(falling_half, 0u);
  const double ratio =
      static_cast<double>(rising_half) / static_cast<double>(falling_half);
  const double a = 2.0 * spec.amplitude / M_PI;
  const double expected_ratio = (1.0 + a) / (1.0 - a);
  EXPECT_NEAR(ratio, expected_ratio, expected_ratio * 0.10);
}

TEST(ArrivalStatsTest, BurstMultipliesTheBaseRate) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kBurst;
  spec.rate_per_sec = 1000.0;
  spec.burst_factor = 10.0;
  spec.burst_every_ns = 1'000'000'000ull;
  spec.burst_len_ns = 250'000'000ull;
  spec.seed = 13;
  constexpr std::size_t kN = 16000;
  const std::vector<std::uint64_t> arrivals = generate_arrivals(spec, kN);

  const std::uint64_t periods = arrivals.back() / spec.burst_every_ns;
  ASSERT_GE(periods, 3u);
  std::uint64_t in_burst = 0, off_burst = 0;
  for (const std::uint64_t t : arrivals) {
    if (t >= periods * spec.burst_every_ns) break;
    (t % spec.burst_every_ns < spec.burst_len_ns ? in_burst : off_burst) += 1;
  }
  // Arrival *density* (count per unit time) must scale by burst_factor.
  const double burst_s = static_cast<double>(periods) *
                         static_cast<double>(spec.burst_len_ns) / 1e9;
  const double off_s = static_cast<double>(periods) *
                       static_cast<double>(spec.burst_every_ns -
                                           spec.burst_len_ns) / 1e9;
  const double density_ratio = (static_cast<double>(in_burst) / burst_s) /
                               (static_cast<double>(off_burst) / off_s);
  EXPECT_NEAR(density_ratio, spec.burst_factor, spec.burst_factor * 0.10);
  // And the off-burst floor is the nominal base rate.
  EXPECT_NEAR(static_cast<double>(off_burst) / off_s, spec.rate_per_sec,
              spec.rate_per_sec * 0.08);
}

// --- Determinism and the spec grammar ---

TEST(ArrivalDeterminismTest, IdenticalSeedsReplayIdenticalStreams) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kDiurnal, ArrivalKind::kBurst}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.rate_per_sec = 1500.0;
    spec.seed = 99;
    const std::vector<std::uint64_t> a = generate_arrivals(spec, 5000);
    const std::vector<std::uint64_t> b = generate_arrivals(spec, 5000);
    EXPECT_EQ(a, b) << arrival_kind_token(kind);

    ArrivalSpec reseeded = spec;
    reseeded.seed = 100;
    EXPECT_NE(generate_arrivals(reseeded, 5000), a)
        << arrival_kind_token(kind);
  }
}

TEST(ArrivalSpecTest, SpecStringRoundTrips) {
  ArrivalSpec poisson;
  poisson.kind = ArrivalKind::kPoisson;
  poisson.rate_per_sec = 2500.0;
  poisson.seed = 17;

  ArrivalSpec diurnal;
  diurnal.kind = ArrivalKind::kDiurnal;
  diurnal.rate_per_sec = 2000.0;
  diurnal.amplitude = 0.8;
  diurnal.period_ns = 5'000'000'000ull;
  diurnal.seed = 3;

  ArrivalSpec burst;
  burst.kind = ArrivalKind::kBurst;
  burst.rate_per_sec = 1000.0;
  burst.burst_factor = 10.0;
  burst.burst_every_ns = 2'000'000'000ull;
  burst.burst_len_ns = 250'000'000ull;
  burst.seed = 5;

  for (const ArrivalSpec& spec : {poisson, diurnal, burst}) {
    ArrivalSpec parsed;
    std::string error;
    ASSERT_TRUE(parse_arrival_spec(spec.spec_string(), &parsed, &error))
        << spec.spec_string() << ": " << error;
    EXPECT_EQ(parsed, spec) << spec.spec_string();
  }
}

TEST(ArrivalSpecTest, RejectsMalformedSpecs) {
  ArrivalSpec out;
  std::string error;
  EXPECT_FALSE(parse_arrival_spec("gaussian:rate=1", &out, &error));
  EXPECT_FALSE(parse_arrival_spec("poisson:rate=0", &out, &error));
  EXPECT_FALSE(parse_arrival_spec("poisson:rate=-5", &out, &error));
  EXPECT_FALSE(parse_arrival_spec("diurnal:rate=10,amplitude=1.5", &out, &error));
  EXPECT_FALSE(parse_arrival_spec("burst:rate=10,factor=0.5", &out, &error));
  EXPECT_FALSE(
      parse_arrival_spec("burst:rate=10,every=1s,len=2s", &out, &error));
  EXPECT_FALSE(parse_arrival_spec("poisson:bogus=1", &out, &error));
}

// --- Placement and sharding ---

TEST(PlacementTest, ShardsAreAPartitionOfTheStream) {
  FleetSpec spec;
  spec.launches = 2000;
  spec.nodes = 4;
  spec.seed = 21;
  const std::vector<std::uint64_t> full =
      generate_arrivals(spec.arrival, spec.launches);

  std::size_t assigned = 0;
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    const std::vector<std::uint64_t> shard = node_arrivals(spec, node);
    assigned += shard.size();
    // Exactly the full stream filtered by placement, in arrival order.
    std::vector<std::uint64_t> expected;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (place_launch(spec.seed, i, spec.nodes) == node) {
        expected.push_back(full[i]);
      }
    }
    EXPECT_EQ(shard, expected) << "node " << node;
  }
  EXPECT_EQ(assigned, spec.launches);
}

TEST(PlacementTest, MixSpreadsLoadAcrossNodes) {
  constexpr std::size_t kNodes = 8;
  constexpr std::uint64_t kLaunches = 16000;
  std::vector<std::uint64_t> counts(kNodes, 0);
  for (std::uint64_t i = 0; i < kLaunches; ++i) {
    const std::size_t node = place_launch(77, i, kNodes);
    ASSERT_LT(node, kNodes);
    ++counts[node];
  }
  const double expected = static_cast<double>(kLaunches) / kNodes;
  for (std::size_t node = 0; node < kNodes; ++node) {
    EXPECT_NEAR(static_cast<double>(counts[node]), expected, expected * 0.10)
        << "node " << node;
  }
}

// --- Shard merge and parallel determinism ---

FleetSpec small_fleet_spec() {
  FleetSpec spec;
  spec.arrival.kind = ArrivalKind::kPoisson;
  spec.arrival.rate_per_sec = 2000.0;
  spec.launches = 400;
  spec.nodes = 4;
  spec.warm_pool = 2;
  spec.modes = {DeployMode::kKvmEptNst, DeployMode::kPvmNst};
  return spec;
}

TEST(FleetMergeTest, NodeHistogramMergeIsOrderIndependent) {
  FleetSpec spec = small_fleet_spec();
  spec.modes = {DeployMode::kPvmNst};

  std::vector<ts::TsDoc> docs;
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    const NodeOutcome outcome = run_node(spec, DeployMode::kPvmNst, node);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    docs.push_back(outcome.doc);
  }

  const auto merge_in = [&](const std::vector<std::size_t>& order) {
    ts::TsDoc merged;
    merged.window_ns = spec.window_ns;
    for (const std::size_t index : order) {
      std::string error;
      EXPECT_TRUE(ts::merge_timeseries(&merged, docs[index], &error)) << error;
    }
    return merged;
  };

  const ts::TsDoc serial = merge_in({0, 1, 2, 3});
  // Element-wise document equality across shuffles: counters, every
  // histogram window, and the surviving exemplars.
  EXPECT_EQ(merge_in({3, 2, 1, 0}), serial);
  EXPECT_EQ(merge_in({2, 0, 3, 1}), serial);

  // And the fleet rollup is exactly this merge in node order.
  const FleetResult result = run_fleet(spec, 1, {});
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].rollup, serial);

  // Quantiles of the merged latency histogram match the cumulative view.
  const auto it = serial.hists.find("fleet/start_ns");
  ASSERT_NE(it, serial.hists.end());
  const MergeableHistogram all = it->second.cumulative();
  std::uint64_t total_starts = 0;
  for (const ts::TsDoc& doc : docs) {
    total_starts += doc.hists.at("fleet/start_ns").cumulative().count();
  }
  EXPECT_EQ(all.count(), total_starts);
  EXPECT_GE(all.quantile(0.99), all.quantile(0.50));
}

TEST(FleetMergeTest, ParallelJobsRenderByteIdenticalToSerial) {
  const FleetSpec spec = small_fleet_spec();
  const FleetResult serial = run_fleet(spec, 1, {});
  const std::string expected = render_fleet_json(spec, serial);
  for (const int jobs : {2, 8}) {
    const FleetResult parallel = run_fleet(spec, jobs, {});
    EXPECT_EQ(render_fleet_json(spec, parallel), expected) << "jobs=" << jobs;
    EXPECT_EQ(parallel.fleetwide, serial.fleetwide) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace pvm::fleet
