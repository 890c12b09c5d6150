#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>

#include "src/arch/page_table.h"
#include "src/arch/tlb.h"
#include "src/backends/platform.h"
#include "src/fleet/fleet.h"
#include "src/metrics/counters.h"
#include "src/mmu/two_dim_walk.h"
#include "src/obs/json_parse.h"
#include "src/obs/metrics_json.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/obs/ts.h"
#include "src/workloads/apps.h"
#include "src/workloads/memstress.h"
#include "src/workloads/timer.h"

namespace perfbench {
namespace {

using pvm::Counter;
using pvm::DeployMode;
using pvm::PlatformConfig;
using pvm::SimTime;
using pvm::Simulation;
using pvm::Task;
using pvm::VirtualPlatform;

// FNV-1a over the virtual-time values of a cell.
class Digest {
 public:
  Digest& add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
    return *this;
  }
  Digest& add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return add(bits);
  }
  Digest& add(std::string_view text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return add(static_cast<std::uint64_t>(text.size()));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

void add_platform(Digest& digest, VirtualPlatform& platform) {
  digest.add(platform.sim().now()).add(platform.sim().events_processed());
  for (std::size_t i = 0; i < pvm::kCounterCount; ++i) {
    digest.add(platform.counters().get(static_cast<Counter>(i)));
  }
}

// Per-layer counts read from the simulator's counters.
struct CountedCounter {
  const char* metric;
  Counter counter;
};
constexpr CountedCounter kCounted[] = {
    {"core.guest_page_fault", Counter::kGuestPageFault},
    {"core.spt_entry_filled", Counter::kSptEntryFilled},
    {"core.prefault_fill", Counter::kPrefaultFill},
    {"core.world_switch", Counter::kWorldSwitch},
    {"core.direct_switch", Counter::kDirectSwitch},
    {"hv.l0_exit", Counter::kL0Exit},
    {"hv.l1_exit", Counter::kL1Exit},
    {"hv.vm_entry", Counter::kVmEntry},
    {"arch.tlb_miss", Counter::kTlbMiss},
};

void add_counters(Rep& rep, const pvm::CounterSet& delta) {
  for (const CountedCounter& c : kCounted) {
    rep.counts[c.metric] += static_cast<double>(delta.get(c.counter));
  }
}

void count_max(Rep& rep, const char* metric, double value) {
  double& slot = rep.counts[metric];
  slot = std::max(slot, value);
}

// Live-state gauges of a platform, read just before its teardown.
void add_platform_gauges(Rep& rep, VirtualPlatform& platform) {
  count_max(rep, "sim.resources_live_peak", static_cast<double>(platform.sim().resources().size()));
  count_max(rep, "sim.queue_slab_hwm",
            static_cast<double>(platform.sim().event_queue_stats().slab.live_high_water));
  count_max(rep, "backends.engine_slab_hwm",
            static_cast<double>(platform.engine_alloc_stats().live_high_water));
  if (platform.sim().flight() != nullptr) {
    rep.counts["obs.flight_events"] += static_cast<double>(platform.flight().total_events());
  }
}

struct Ctx {
  Size size;
  const Seeds& seeds;
  const Variant& variant;
  HostTrace& trace;
  Rep& rep;
};

// Adds a cell's set-up and measured regions to the rep's totals.
class CellClock {
 public:
  CellClock(Rep& rep, std::string cell) : rep_(rep), cell_(std::move(cell)), mark_(Clock::now()) {}
  void setup_done() { rep_.setup_s += lap(); }
  void measured_done() {
    const double s = lap();
    rep_.wall_s += s;
    rep_.cell_wall_s[cell_] += s;
  }

 private:
  double lap() {
    const Clock::time_point now = Clock::now();
    const double s = seconds_between(mark_, now);
    mark_ = now;
    return s;
  }
  Rep& rep_;
  std::string cell_;
  Clock::time_point mark_;
};

// Runs one cell. `body` fills the digest; a throw marks the cell failed.
template <typename Body>
void run_cell(Ctx& ctx, const std::string& label, Body&& body) {
  HostTrace::Scope scope(ctx.trace, "cell", label);
  Digest digest;
  digest.add(label);
  try {
    body(digest);
    ctx.rep.digests.emplace_back(label, digest.value());
  } catch (const std::exception& e) {
    ctx.rep.failures.push_back(label + ": " + e.what());
    ctx.rep.digests.emplace_back(label, 0);
  }
}

std::unique_ptr<VirtualPlatform> construct(Ctx& ctx, const std::string& label,
                                           const PlatformConfig& config) {
  std::unique_ptr<VirtualPlatform> platform;
  ctx.trace.time("backends.platform_ctor", label,
                 [&] { platform = std::make_unique<VirtualPlatform>(config); });
  if (!ctx.variant.flight) {
    platform->sim().set_flight(nullptr);
  }
  return platform;
}

// The workload's Simulation::run; a run that leaves tasks pending failed.
void run_measured(Ctx& ctx, const std::string& label, Simulation& sim) {
  std::uint64_t events = 0;
  ctx.trace.time("sim.run", label, [&] { events = sim.run(); });
  ctx.rep.events += events;
  if (!sim.all_tasks_done()) {
    throw std::runtime_error("tasks left pending: " + sim.blocked_report());
  }
}

void teardown(Ctx& ctx, const std::string& label, std::unique_ptr<VirtualPlatform>& platform) {
  add_platform_gauges(ctx.rep, *platform);
  ctx.trace.time("backends.teardown", label, [&] { platform.reset(); });
}

PlatformConfig config_for(DeployMode mode, const Seeds& seeds) {
  PlatformConfig config;
  config.mode = mode;
  config.schedule_policy = pvm::SchedulePolicy::kRandom;
  config.schedule_seed = seeds.schedule;
  return config;
}

Task<void> timed(Simulation& sim, Task<void> inner, SimTime* duration,
                 std::shared_ptr<bool> stop) {
  const SimTime start = sim.now();
  co_await std::move(inner);
  *duration = sim.now() - start;
  if (stop != nullptr) {
    *stop = true;
  }
}

Task<void> store(Task<double> inner, double* out) { *out = co_await std::move(inner); }

Task<void> create_process(pvm::GuestKernel& kernel, pvm::Vcpu& vcpu, pvm::GuestProcess** out,
                          int pages) {
  *out = co_await kernel.create_init_process(vcpu, pages);
}

// ---- pagefault / pagefault-observed ----------------------------------------

struct MemstressConfig {
  const char* name;
  PlatformConfig config;
};

std::vector<MemstressConfig> memstress_configs(const Seeds& seeds, bool with_none) {
  std::vector<MemstressConfig> configs;
  configs.push_back({"pvm (NST)", config_for(DeployMode::kPvmNst, seeds)});
  if (with_none) {
    PlatformConfig none = config_for(DeployMode::kPvmNst, seeds);
    none.prefault = false;
    none.pcid_mapping = false;
    none.fine_grained_locks = false;
    configs.push_back({"pvm (NST-none)", none});
  }
  configs.push_back({"kvm-ept (NST)", config_for(DeployMode::kKvmEptNst, seeds)});
  return configs;
}

// The program's own observability for one cell: attached before boot so
// the whole platform run is recorded, exported after the measured run.
struct Observation {
  pvm::obs::SpanRecorder spans;
  pvm::ts::Collector collector;

  void attach(Simulation& sim) {
    spans.set_enabled(true);
    sim.set_spans(&spans);
    sim.set_ts(&collector);
  }

  void export_all(Ctx& ctx, const std::string& label, VirtualPlatform& platform,
                  double mean_seconds) {
    std::size_t bytes = 0;
    ctx.trace.time("obs.export_bench", label, [&] {
      pvm::obs::BenchExport bench("perfbench/pagefault-observed");
      bench.add_run(label, platform.sim(), platform.counters(), &spans,
                    {{"mean_seconds", mean_seconds}});
      bytes += bench.to_json().size();
    });
    pvm::prof::ProfDoc profile;
    ctx.trace.time("obs.prof_fold", label, [&] { profile = pvm::prof::fold_profile(spans); });
    ctx.trace.time("obs.export_profile", label,
                   [&] { bytes += pvm::prof::render_profile_json(profile).size(); });
    ctx.trace.time("obs.export_ts", label, [&] {
      bytes += pvm::ts::render_timeseries_json(collector.drain()).size();
    });
    ctx.rep.counts["obs.spans"] +=
        static_cast<double>(spans.spans().size() + spans.dropped_spans());
    ctx.rep.counts["obs.export_bytes"] += static_cast<double>(bytes);
  }
};

// Fig. 10: each process allocates, touches and releases 1 MiB chunks.
void memstress_cell(Ctx& ctx, const std::string& label, const PlatformConfig& config,
                    int processes, std::uint64_t bytes_per_process, bool observe) {
  run_cell(ctx, label, [&](Digest& digest) {
    CellClock clock(ctx.rep, label);
    std::unique_ptr<Observation> observation;  // outlives the platform
    std::unique_ptr<VirtualPlatform> platform = construct(ctx, label, config);
    if (observe) {
      observation = std::make_unique<Observation>();
      observation->attach(platform->sim());
    }
    Simulation& sim = platform->sim();
    pvm::SecureContainer& container = platform->create_container("c0");
    std::vector<pvm::Vcpu*> vcpus;
    std::vector<pvm::GuestProcess*> procs(static_cast<std::size_t>(processes), nullptr);
    ctx.trace.time("guest.boot", label, [&] {
      sim.spawn(container.boot(16));
      sim.run();
      for (int i = 0; i < processes; ++i) {
        vcpus.push_back(&container.add_vcpu());
      }
      for (std::size_t i = 0; i < procs.size(); ++i) {
        sim.spawn(create_process(container.kernel(), *vcpus[i], &procs[i], 32));
      }
      sim.run();
    });
    if (container.boot_failed()) {
      throw std::runtime_error("container boot failed");
    }
    clock.setup_done();

    const pvm::CounterSet before = platform->counters();
    pvm::MemStressParams params;
    params.total_bytes = bytes_per_process;
    params.release_chunks = true;
    params.seed = ctx.seeds.memstress;
    std::vector<SimTime> times(procs.size(), 0);
    for (std::size_t i = 0; i < procs.size(); ++i) {
      sim.spawn(timed(sim, pvm::memstress_process(container, *vcpus[i], *procs[i], params),
                      &times[i], nullptr));
    }
    run_measured(ctx, label, sim);
    add_counters(ctx.rep, platform->counters().delta_since(before));
    add_platform(digest, *platform);
    double sum = 0;
    for (const SimTime t : times) {
      digest.add(t);
      sum += static_cast<double>(t);
    }
    if (observation != nullptr) {
      observation->export_all(ctx, label, *platform, sum / static_cast<double>(times.size()) / 1e9);
    }
    teardown(ctx, label, platform);
    clock.measured_done();
  });
}

void pagefault_rep(Ctx& ctx, bool observed) {
  const bool full = ctx.size == Size::kFull;
  const std::vector<int> processes = full ? std::vector<int>{4, 32} : std::vector<int>{1, 2};
  const std::uint64_t mib = full ? (observed ? 2 : 4) : 1;
  for (const MemstressConfig& c : memstress_configs(ctx.seeds, /*with_none=*/!observed)) {
    for (const int p : processes) {
      memstress_cell(ctx, std::string(c.name) + "/" + std::to_string(p) + "p", c.config, p,
                     mib << 20, observed && ctx.variant.observe);
    }
  }
}

// ---- apps -------------------------------------------------------------------

enum class App { kKbuild, kBlogbench, kSpecjbb, kFluidanimate };

constexpr struct {
  App app;
  const char* name;
  int init_pages;
} kApps[] = {
    {App::kKbuild, "kbuild", 96},
    {App::kBlogbench, "blogbench", 96},
    {App::kSpecjbb, "specjbb", 96},
    {App::kFluidanimate, "fluidanimate", 32},
};

constexpr int kTimerHz = 1000;

// Fig. 11: `containers` copies of one application, each with its tick.
void app_cell(Ctx& ctx, const std::string& label, const PlatformConfig& config, App app,
              int init_pages, int containers, double size) {
  run_cell(ctx, label, [&](Digest& digest) {
    CellClock clock(ctx.rep, label);
    std::unique_ptr<VirtualPlatform> platform = construct(ctx, label, config);
    Simulation& sim = platform->sim();
    std::vector<pvm::SecureContainer*> boxes;
    ctx.trace.time("guest.boot", label, [&] {
      for (int i = 0; i < containers; ++i) {
        boxes.push_back(&platform->create_container("c" + std::to_string(i)));
      }
      for (pvm::SecureContainer* box : boxes) {
        sim.spawn(box->boot(init_pages));
      }
      sim.run();
    });
    clock.setup_done();

    const pvm::CounterSet before = platform->counters();
    pvm::AppParams params;
    params.size = size;
    params.seed = ctx.seeds.memstress;
    std::vector<SimTime> times(boxes.size(), 0);
    std::vector<double> scores(boxes.size(), 0);
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      pvm::SecureContainer& box = *boxes[i];
      if (box.boot_failed()) {
        ctx.rep.counts["guest.boots_failed"] += 1;
        continue;
      }
      auto stop = std::make_shared<bool>(false);
      sim.spawn(pvm::timer_ticks(box, kTimerHz, stop));
      pvm::Vcpu& vcpu = box.vcpu(0);
      pvm::GuestProcess& proc = *box.init_process();
      Task<void> body = [&]() -> Task<void> {
        switch (app) {
          case App::kKbuild:
            return pvm::app_kbuild(box, vcpu, proc, params);
          case App::kBlogbench:
            return store(pvm::app_blogbench(box, vcpu, proc, params), &scores[i]);
          case App::kSpecjbb:
            return store(pvm::app_specjbb(box, vcpu, proc, params), &scores[i]);
          case App::kFluidanimate:
            break;
        }
        return pvm::app_fluidanimate(box, params, /*threads=*/4, /*frames=*/16);
      }();
      sim.spawn(timed(sim, std::move(body), &times[i], stop));
    }
    run_measured(ctx, label, sim);
    add_counters(ctx.rep, platform->counters().delta_since(before));
    add_platform(digest, *platform);
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      digest.add(times[i]).add(scores[i]).add(boxes[i]->boot_latency());
    }
    teardown(ctx, label, platform);
    clock.measured_done();
  });
}

void apps_rep(Ctx& ctx) {
  const bool full = ctx.size == Size::kFull;
  const int containers = full ? 16 : 2;
  const double size = full ? 0.1 : 0.05;
  for (const DeployMode mode : {DeployMode::kPvmNst, DeployMode::kKvmEptNst}) {
    for (const auto& a : kApps) {
      app_cell(ctx, std::string(pvm::deploy_mode_name(mode)) + "/" + a.name + "/" +
                        std::to_string(containers) + "c",
               config_for(mode, ctx.seeds), a.app, a.init_pages, containers, size);
    }
  }
}

// ---- fleet -----------------------------------------------------------------

pvm::fleet::FleetSpec fleet_spec(Size size, const Seeds& seeds) {
  // pvm-fleet --scenario flashcrowd --faults bootstorm --modes ept,pvm --nodes 4
  pvm::fleet::FleetSpec spec;
  spec.arrival.kind = pvm::fleet::ArrivalKind::kBurst;
  spec.arrival.rate_per_sec = 1000;
  spec.arrival.burst_factor = 10;
  spec.arrival.burst_every_ns = 2'000'000'000ull;
  spec.arrival.burst_len_ns = 250'000'000ull;
  spec.arrival.seed = seeds.arrival;
  spec.fault_plan = "bootstorm";
  spec.launches = size == Size::kFull ? 8000 : 200;
  spec.nodes = 4;
  spec.modes = {DeployMode::kKvmEptNst, DeployMode::kPvmNst};
  spec.policy = pvm::SchedulePolicy::kRandom;
  spec.schedule_seed = seeds.schedule;
  spec.seed = seeds.placement;
  return spec;
}

// Adds a node's counters (from its embedded pvm.bench.v1 document).
void add_node_counters(Rep& rep, const std::string& bench_json) {
  pvm::obs::JsonValue doc;
  std::string error;
  if (!pvm::obs::json_parse(bench_json, &doc, &error)) {
    throw std::runtime_error("node bench document: " + error);
  }
  const pvm::obs::JsonValue* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array() || runs->array.empty()) {
    throw std::runtime_error("node bench document has no run");
  }
  const pvm::obs::JsonValue* counters = runs->array.front().find("counters");
  for (const CountedCounter& c : kCounted) {
    const pvm::obs::JsonValue* v =
        counters == nullptr ? nullptr : counters->find(pvm::counter_name(c.counter));
    if (v != nullptr && v->is_number()) {
      rep.counts[c.metric] += v->number;
    }
  }
}

void fleet_rep(Ctx& ctx) {
  namespace fleet = pvm::fleet;
  const fleet::FleetSpec spec = fleet_spec(ctx.size, ctx.seeds);
  // Set-up is the generation of the inputs: every node's arrival stream,
  // checked to place each launch once. run_node builds its own platform and
  // does its template boot, WAL snapshot and warm pool inside its node
  // simulation, where they cannot be timed apart; they count in wall_s.
  {
    CellClock clock(ctx.rep, "fleet/arrivals");
    std::size_t placed = 0;
    for (std::size_t node = 0; node < spec.nodes; ++node) {
      ctx.trace.time("fleet.arrivals", "n" + std::to_string(node),
                     [&] { placed += fleet::node_arrivals(spec, node).size(); });
    }
    clock.setup_done();
    if (placed != spec.launches) {
      ctx.rep.failures.push_back("arrivals: placed " + std::to_string(placed) + " of " +
                                 std::to_string(spec.launches));
    }
  }

  fleet::FleetResult result;
  for (const DeployMode mode : spec.modes) {
    fleet::FleetGroup group;
    group.mode = mode;
    group.rollup.window_ns = spec.window_ns;
    for (std::size_t node = 0; node < spec.nodes; ++node) {
      const std::string label =
          std::string(pvm::deploy_mode_token(mode)) + "/n" + std::to_string(node);
      run_cell(ctx, label, [&](Digest& digest) {
        CellClock clock(ctx.rep, label);
        fleet::NodeOutcome outcome;
        ctx.trace.time("fleet.run_node", label,
                       [&] { outcome = fleet::run_node(spec, mode, node); });
        clock.measured_done();
        if (!outcome.ok) {
          throw std::runtime_error("node failed: " + outcome.error);
        }
        ctx.rep.events += outcome.events;
        add_node_counters(ctx.rep, outcome.bench_json);
        ctx.rep.counts["fleet.containers"] += static_cast<double>(outcome.containers);
        ctx.rep.counts["wal.snapshot_bytes"] += static_cast<double>(outcome.snapshot_bytes);
        const auto launches = outcome.doc.series.find("fleet/launches");
        if (launches != outcome.doc.series.end()) {
          ctx.rep.counts["fleet.launches"] += static_cast<double>(launches->second.total);
        }
        digest.add(outcome.events).add(outcome.sim_ns).add(outcome.containers);
        digest.add(outcome.snapshot_bytes).add(outcome.snapshot_records);
        digest.add(outcome.bench_json).add(pvm::ts::render_timeseries_json(outcome.doc));
        group.nodes.push_back(std::move(outcome));
      });
    }
    result.groups.push_back(std::move(group));
  }

  // The rollup and document run_fleet would build from these nodes.
  CellClock clock(ctx.rep, "fleet/rollup");
  std::string error;
  ctx.trace.time("fleet.rollup", "fleet", [&] {
    result.fleetwide.window_ns = spec.window_ns;
    for (fleet::FleetGroup& group : result.groups) {
      for (const fleet::NodeOutcome& node : group.nodes) {
        if (!pvm::ts::merge_timeseries(&group.rollup, node.doc, &error)) {
          return;
        }
      }
      const pvm::ts::TsDoc prefixed = pvm::ts::prefix_timeseries(
          group.rollup, std::string(pvm::deploy_mode_token(group.mode)) + "/");
      if (!pvm::ts::merge_timeseries(&result.fleetwide, prefixed, &error)) {
        return;
      }
    }
  });
  std::size_t bytes = 0;
  ctx.trace.time("fleet.export", "fleet",
                 [&] { bytes = fleet::render_fleet_json(spec, result).size(); });
  clock.measured_done();
  if (!error.empty()) {
    ctx.rep.failures.push_back("fleet rollup: " + error);
  }
  ctx.rep.counts["obs.export_bytes"] += static_cast<double>(bytes);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"pagefault", "apps", "fleet",
                                              "pagefault-observed"};
  return names;
}

Rep run_rep(const std::string& workload, Size size, const Seeds& seeds, const Variant& variant,
            HostTrace& trace) {
  Rep rep;
  Ctx ctx{size, seeds, variant, trace, rep};
  if (workload == "pagefault") {
    pagefault_rep(ctx, /*observed=*/false);
  } else if (workload == "apps") {
    apps_rep(ctx);
  } else if (workload == "fleet") {
    fleet_rep(ctx);
  } else if (workload == "pagefault-observed") {
    pagefault_rep(ctx, /*observed=*/true);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return rep;
}

std::map<std::string, double> arch_probes(Size size) {
  // pagefault's largest cell keeps 32 processes x one 1 MiB chunk resident.
  const int processes = size == Size::kFull ? 32 : 2;
  constexpr int kPagesPerChunk = 256;
  pvm::FrameAllocator gpa("probe.gpa", 1ull << 24);
  pvm::FrameAllocator hpa("probe.hpa", 1ull << 24);
  pvm::PageTable gpt("probe.gpt", &gpa);
  pvm::PageTable ept("probe.ept", nullptr);
  std::vector<std::uint64_t> vas;
  for (int p = 0; p < processes; ++p) {
    for (int i = 0; i < kPagesPerChunk; ++i) {
      vas.push_back((static_cast<std::uint64_t>(p + 1) << 30) +
                    static_cast<std::uint64_t>(i) * pvm::kPageSize);
    }
  }
  const auto per_call_ns = [&](auto&& fn) {
    const Clock::time_point start = Clock::now();
    for (const std::uint64_t va : vas) {
      fn(va);
    }
    return seconds_between(start, Clock::now()) * 1e9 / static_cast<double>(vas.size());
  };

  std::map<std::string, double> ns;
  ns["arch.pt_map_ns"] = per_call_ns([&](std::uint64_t va) {
    gpt.map(va, gpa.allocate_or_throw(), pvm::PteFlags::rw_user());
  });
  // Back every guest frame handed out so far (data and table pages) in the EPT.
  for (std::uint64_t frame = 0; frame < gpa.allocated(); ++frame) {
    ept.map(frame << pvm::kPageShift, hpa.allocate_or_throw(), pvm::PteFlags::rw_kernel());
  }
  std::uint64_t bad = 0;
  ns["arch.pt_walk_ns"] = per_call_ns([&](std::uint64_t va) {
    bad += gpt.walk(va, pvm::AccessType::kRead, /*user_mode=*/true).present ? 0 : 1;
  });
  pvm::Tlb tlb;
  ns["arch.tlb_lookup_ns"] = per_call_ns([&](std::uint64_t va) {
    const std::uint64_t vpn = va >> pvm::kPageShift;
    if (!tlb.lookup(1, 1, vpn).hit) {
      tlb.insert(1, 1, vpn, *gpt.find_pte(va));
    }
  });
  ns["mmu.two_dim_walk_ns"] = per_call_ns([&](std::uint64_t va) {
    const pvm::TwoDimWalk walk =
        pvm::walk_two_dimensional(gpt, ept, va, pvm::AccessType::kRead, /*user_mode=*/true);
    bad += walk.outcome == pvm::TwoDimWalk::Outcome::kOk ? 0 : 1;
  });
  if (bad != 0) {
    throw std::runtime_error("arch probe: " + std::to_string(bad) + " walks failed");
  }
  return ns;
}

}  // namespace perfbench
