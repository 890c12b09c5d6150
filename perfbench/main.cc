// perfbench — host-time benchmark of the PVM simulator.
//
//   perfbench --workload pagefault --seed 3 --seconds 25 --trace 0
//
// Runs one workload (see workloads.h) repeatedly for --seconds and prints a
// host record, a human-readable summary, and, as the last line, one JSON
// object: the run's metrics with units, cells attempted and failed, and
// every cell's vt_digest. --trace 0 measures the end-to-end metrics with
// tracing off; --trace 1 records host spans and derives the per-layer
// metrics from them (see README.md for both tables).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perfbench/host_trace.h"
#include "perfbench/workloads.h"
#include "src/obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir;
  std::optional<std::uint64_t> memstress_seed, schedule_seed, arrival_seed, placement_seed;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--size full|tiny] [--out-dir DIR]\n"
               "                 [--memstress-seed N] [--schedule-seed N]\n"
               "                 [--arrival-seed N] [--placement-seed N]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage_error(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage_error("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        usage_error("--size takes full or tiny");
      }
      o.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--memstress-seed") {
      o.memstress_seed = parse_u64(flag, value);
    } else if (flag == "--schedule-seed") {
      o.schedule_seed = parse_u64(flag, value);
    } else if (flag == "--arrival-seed") {
      o.arrival_seed = parse_u64(flag, value);
    } else if (flag == "--placement-seed") {
      o.placement_seed = parse_u64(flag, value);
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage_error("unknown --workload '" + o.workload + "'");
  }
  return o;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Each seed the workloads take is derived from --seed unless given.
Seeds derive_seeds(const Options& o) {
  Seeds s;
  s.memstress = o.memstress_seed.value_or(splitmix64(4 * o.seed + 0));
  s.schedule = o.schedule_seed.value_or(splitmix64(4 * o.seed + 1));
  s.arrival = o.arrival_seed.value_or(splitmix64(4 * o.seed + 2));
  s.placement = o.placement_seed.value_or(splitmix64(4 * o.seed + 3));
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Counts cells and failures over every rep of the run, and checks that
// each rep reproduced the first rep's vt_digests.
class Tally {
 public:
  void add(const Rep& rep, const char* variant) {
    std::size_t failed_cells = 0;
    for (const auto& [cell, digest] : rep.digests) {
      failed_cells += digest == 0 ? 1 : 0;
    }
    attempted_ += rep.digests.size() + (rep.failures.size() - failed_cells);
    failed_ += rep.failures.size();
    for (const std::string& f : rep.failures) {
      failures_.push_back(std::string(variant) + ": " + f);
    }
    if (reference_.empty()) {
      reference_ = rep.digests;
      return;
    }
    for (std::size_t i = 0; i < rep.digests.size(); ++i) {
      const auto& [cell, digest] = rep.digests[i];
      if (digest == 0) {
        continue;
      }
      if (i >= reference_.size() || reference_[i].first != cell ||
          (reference_[i].second != 0 && reference_[i].second != digest)) {
        ++failed_;
        failures_.push_back(std::string(variant) + ": " + cell + ": vt_digest " + hex(digest) +
                            " differs from the first rep");
      }
    }
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::pair<std::string, std::uint64_t>>& digests() const { return reference_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::uint64_t>> reference_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// Host seconds of the simulations a variant changes: the workload runs and
// the boots.
double simulated_s(const std::map<std::string, double>& self) {
  return get(self, "sim.run") + get(self, "guest.boot");
}

// True while one more step of `step_s` still ends within `seconds` of
// `start`, so a run stops before it overshoots its measuring time.
bool fits(Clock::time_point start, double step_s, double seconds) {
  return seconds_between(start, Clock::now()) + step_s <= seconds;
}

// The untraced run: the end-to-end metrics over reps of the workload. There
// is no warm-up rep: a cold first run of a cell is never its fastest, and
// set-up takes the median.
std::vector<Metric> end_to_end(const Options& o, const Seeds& seeds, Tally& tally,
                               std::size_t* reps_out) {
  HostTrace off(false);
  std::vector<double> wall, setup;
  std::map<std::string, double> fastest;  // cell -> its fastest measured region
  std::uint64_t events = 0;               // per rep; the digests pin it
  const Clock::time_point start = Clock::now();
  double last_rep_s = 0;
  while (wall.size() < 3 || fits(start, last_rep_s, o.seconds)) {
    const Clock::time_point rep_start = Clock::now();
    const Rep rep = run_rep(o.workload, o.size, seeds, Variant{}, off);
    last_rep_s = seconds_between(rep_start, Clock::now());
    tally.add(rep, "rep");
    wall.push_back(rep.wall_s);
    setup.push_back(rep.setup_s);
    events = rep.events;
    for (const auto& [cell, s] : rep.cell_wall_s) {
      double& best = fastest.emplace(cell, s).first->second;
      best = std::min(best, s);
    }
  }
  *reps_out = wall.size();
  std::printf("# rep wall_s:");
  for (const double w : wall) {
    std::printf(" %.4f", w);
  }
  std::printf("  (median %.4f, fastest %.4f)\n", median(wall),
              *std::min_element(wall.begin(), wall.end()));
  // Other tenants of the host only ever add time, in slow phases of a few
  // seconds, so each cell's fastest run is the steadiest estimate of the
  // program's own cost; wall_s sums them. Set-up is short and taken as the
  // median.
  double fastest_wall = 0;
  for (const auto& [cell, s] : fastest) {
    fastest_wall += s;
  }
  return {
      {"wall_s", "s", fastest_wall},
      {"setup_s", "s", median(setup)},
      {"events_per_s", "1/s", fastest_wall > 0 ? static_cast<double>(events) / fastest_wall : 0},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
  };
}

// One round of the traced run: the cells untraced, traced, traced with the
// flight recorder detached (not on fleet), and (pagefault-observed) traced
// without the program's own observability. Returns this round's per-layer
// values.
std::map<std::string, double> traced_round(const Options& o, const Seeds& seeds,
                                           Clock::time_point epoch, Tally& tally,
                                           std::vector<HostTrace>& traces, Rep* counted) {
  HostTrace off(false);
  const Rep untraced = run_rep(o.workload, o.size, seeds, Variant{}, off);
  tally.add(untraced, "untraced");

  const std::size_t traced = traces.size();
  traces.emplace_back(true, epoch);
  const Rep rep = run_rep(o.workload, o.size, seeds, Variant{}, traces.back());
  tally.add(rep, "traced");
  const std::map<std::string, double> self = traces.back().self_seconds();

  std::map<std::string, double> v;
  // fleet nodes build their own platforms, so their recorder stays attached.
  if (o.workload != "fleet") {
    traces.emplace_back(true, epoch);
    const Rep no_flight = run_rep(o.workload, o.size, seeds, Variant{false, true}, traces.back());
    tally.add(no_flight, "flight-detached");
    v["obs.flight_s"] = simulated_s(self) - simulated_s(traces.back().self_seconds());
  }
  if (o.workload == "pagefault-observed") {
    traces.emplace_back(true, epoch);
    const Rep unobserved = run_rep(o.workload, o.size, seeds, Variant{true, false}, traces.back());
    tally.add(unobserved, "unobserved");
    v["obs.span_record_s"] = simulated_s(self) - simulated_s(traces.back().self_seconds());
  }

  const double run_s = get(self, "sim.run") + get(self, "fleet.run_node");
  const double events = static_cast<double>(rep.events);
  const double faults = get(rep.counts, "core.guest_page_fault");
  const double exits = get(rep.counts, "hv.l0_exit") + get(rep.counts, "hv.l1_exit");
  v["sim.run_s"] = run_s;
  v["sim.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0;
  v["backends.platform_ctor_s"] = get(self, "backends.platform_ctor");
  v["backends.teardown_s"] = get(self, "backends.teardown");
  v["guest.boot_s"] = get(self, "guest.boot");
  v["core.ns_per_fault"] = faults > 0 ? run_s * 1e9 / faults : 0;
  v["hv.ns_per_exit"] = exits > 0 ? run_s * 1e9 / exits : 0;
  v["trace.overhead_s"] = rep.wall_s - untraced.wall_s;
  for (const char* name : {"obs.prof_fold", "obs.export_bench", "obs.export_profile",
                           "obs.export_ts", "fleet.export", "fleet.rollup", "fleet.arrivals"}) {
    v[std::string(name) + "_s"] = get(self, name);
  }
  std::vector<double> nodes;
  for (const HostSpan& span : traces[traced].spans()) {
    if (span.name == "fleet.run_node") {
      nodes.push_back(span.end_s - span.start_s);
    }
  }
  if (!nodes.empty()) {
    v["fleet.node_s_median"] = median(nodes);
    v["fleet.node_s_max"] = *std::max_element(nodes.begin(), nodes.end());
  }
  // Everything the spans do not cover: glue between the timed calls.
  double covered = 0;
  for (const auto& [name, s] : self) {
    covered += name == "cell" ? 0 : s;
  }
  v["trace.unaccounted_s"] = rep.setup_s + rep.wall_s - covered;
  v["trace.setup_wall_s"] = rep.setup_s + rep.wall_s;
  if (counted->digests.empty()) {
    *counted = rep;
  }
  for (const auto& [name, ns] : arch_probes(o.size)) {
    v[name] = ns;
  }
  return v;
}

// The metrics BENCHMARK.json lists as per_layer: defined on every workload.
// Times that some workload cannot measure (the platform layers run inside
// fleet::run_node on fleet) go to the summary and *.bench.json only.
const char* const kPerLayerTimes[][2] = {
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"core.ns_per_fault", "ns"},
    {"hv.ns_per_exit", "ns"},
    {"arch.pt_map_ns", "ns"},
    {"arch.pt_walk_ns", "ns"},
    {"arch.tlb_lookup_ns", "ns"},
    {"mmu.two_dim_walk_ns", "ns"},
    {"trace.overhead_s", "s"},
};
const char* const kPerLayerCounts[] = {
    "sim.resources_live_peak", "sim.queue_slab_hwm", "backends.engine_slab_hwm",
    "guest.boots_failed",      "core.guest_page_fault", "core.spt_entry_filled",
    "core.prefault_fill",      "core.world_switch",     "core.direct_switch",
    "hv.l0_exit",              "hv.l1_exit",            "hv.vm_entry",
    "arch.tlb_miss",           "obs.flight_events",     "obs.spans",
    "obs.export_bytes",        "fleet.launches",        "fleet.containers",
    "wal.snapshot_bytes",
};

void write_spans(const std::string& path, const std::vector<HostTrace>& traces) {
  pvm::obs::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const std::vector<HostSpan>& spans = traces[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const HostSpan& s = spans[i];
      w.begin_object();
      w.key("name").value(s.name);
      w.key("cat").value(std::string_view(s.name).substr(0, s.name.find('.')));
      w.key("ph").value("X");
      w.key("ts").raw(number(s.start_s * 1e6));
      w.key("dur").raw(number((s.end_s - s.start_s) * 1e6));
      w.key("pid").value(1);
      w.key("tid").value(static_cast<std::uint64_t>(t));
      w.key("args").begin_object();
      w.key("cell").value(s.cell);
      w.key("parent").value(static_cast<std::int64_t>(s.parent));
      w.end_object();
      w.end_object();
    }
  }
  w.end_array().end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

int run(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  const Seeds seeds = derive_seeds(o);
  std::printf("# host: nproc=%u compiler=%s build_type=%s\n", std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d size=%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.size == Size::kFull ? "full" : "tiny");
  std::printf("# seeds: memstress=%llu schedule=%llu arrival=%llu placement=%llu\n",
              static_cast<unsigned long long>(seeds.memstress),
              static_cast<unsigned long long>(seeds.schedule),
              static_cast<unsigned long long>(seeds.arrival),
              static_cast<unsigned long long>(seeds.placement));
  std::fflush(stdout);

  Tally tally;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::size_t reps = 0;
  if (!o.trace) {
    metrics = end_to_end(o, seeds, tally, &reps);
  } else {
    HostTrace off(false);
    tally.add(run_rep(o.workload, o.size, seeds, Variant{}, off), "warmup");
    const Clock::time_point epoch = Clock::now();
    std::vector<HostTrace> traces;
    std::vector<std::map<std::string, double>> rounds;
    Rep counted;
    double last_round_s = 0;
    while (rounds.empty() || fits(epoch, last_round_s, o.seconds)) {
      const Clock::time_point round_start = Clock::now();
      rounds.push_back(traced_round(o, seeds, epoch, tally, traces, &counted));
      last_round_s = seconds_between(round_start, Clock::now());
    }
    reps = rounds.size();
    const auto median_of = [&](const std::string& name) {
      std::vector<double> values;
      for (const auto& round : rounds) {
        values.push_back(get(round, name));
      }
      return median(values);
    };
    for (const auto& [name, unit] : kPerLayerTimes) {
      metrics.push_back({name, unit, median_of(name)});
    }
    for (const char* name : kPerLayerCounts) {
      metrics.push_back({name, "count", get(counted.counts, name)});
    }
    metrics.push_back({"sim.events", "count", static_cast<double>(counted.events)});
    // Workload-specific times; a layer the workload never calls reads 0
    // and is left out.
    for (const auto& [name, value] : rounds.front()) {
      const double m = median_of(name);
      if (m != 0 && std::none_of(metrics.begin(), metrics.end(),
                                 [&](const Metric& x) { return x.name == name; })) {
        extra.push_back({name, "s", m});
      }
    }
    if (!o.out_dir.empty()) {
      write_spans(o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                      ".spans.json",
                  traces);
    }
  }
  const double fail_frac =
      tally.attempted() == 0 ? 0 : static_cast<double>(tally.failed()) / tally.attempted();
  extra.push_back({"fail_frac", "ratio", fail_frac});

  for (const Metric& m : metrics) {
    std::printf("%-28s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : extra) {
    std::printf("%-28s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : tally.failures()) {
    std::printf("FAIL %s\n", f.c_str());
  }

  pvm::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(o.workload);
  w.key("seed").value(o.seed);
  w.key("size").value(o.size == Size::kFull ? "full" : "tiny");
  w.key("reps").value(static_cast<std::uint64_t>(reps));
  w.key("attempted").value(static_cast<std::uint64_t>(tally.attempted()));
  w.key("failed").value(static_cast<std::uint64_t>(tally.failed()));
  w.key("failures").begin_array();
  for (const std::string& f : tally.failures()) {
    w.value(f);
  }
  w.end_array();
  w.key("vt_digests").begin_object();
  for (const auto& [cell, digest] : tally.digests()) {
    w.key(cell).value(hex(digest));
  }
  w.end_object();
  const auto emit = [&](const char* key, const std::vector<Metric>& list) {
    w.key(key).begin_object();
    for (const Metric& m : list) {
      w.key(m.name).begin_object();
      w.key("value").raw(number(m.value));
      w.key("unit").value(m.unit);
      w.end_object();
    }
    w.end_object();
  };
  emit("metrics", metrics);
  emit("extra", extra);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
