#include "src/fleet/fleet.h"

#include <deque>
#include <stdexcept>
#include <utility>

#include "src/backends/platform.h"
#include "src/core/memory_engine.h"
#include "src/fault/fault.h"
#include "src/obs/json.h"
#include "src/obs/metrics_json.h"
#include "src/sim/resource.h"
#include "src/wal/wal.h"

namespace pvm::fleet {
namespace {

// Mixes the node coordinate into a base seed so per-node fault/schedule
// streams are independent but reproducible from the spec alone.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t mode_index,
                       std::uint64_t node) {
  std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ull * (mode_index + 1)) ^
                    (0xbf58476d1ce4e5b9ull * (node + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Everything one node's coroutines share. Lives on run_node's stack; every
// frame spawned into the node simulation is completed or destroyed
// (abandon_pending) before it goes away.
struct NodeCtx {
  const FleetSpec& spec;
  VirtualPlatform& platform;
  Resource slots;
  std::deque<SecureContainer*> idle;
  std::uint64_t created = 0;
  bool snapshot_ok = false;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t snapshot_records = 0;
  ts::TsDoc doc;

  NodeCtx(const FleetSpec& s, VirtualPlatform& p)
      : spec(s), platform(p),
        slots(p.sim(), "fleet.slots", s.capacity == 0 ? 1 : s.capacity) {
    doc.window_ns = s.window_ns == 0 ? ts::kDefaultWindowNs : s.window_ns;
    // Materialize every counter up front (empty window map, total 0): a
    // healthy node exports oom_kills = 0 rather than no metric at all, so
    // "zero crashes" is a gateable SLO instead of a (no match) failure,
    // and rollup documents carry a fixed key set.
    for (const char* name :
         {"fleet/launches", "fleet/completions", "fleet/warm_starts",
          "fleet/restore_starts", "fleet/cold_starts", "fleet/prewarm_boots",
          "fleet/oom_kills", "fleet/deadline_miss", "fleet/starved",
          "fleet/crashes", "fleet/retired"}) {
      doc.series.emplace(name, ts::TsSeries{});
    }
  }

  std::uint64_t now() { return platform.sim().now(); }

  void count(std::string_view name, std::int64_t n = 1) {
    auto it = doc.series.find(name);
    if (it == doc.series.end()) {
      it = doc.series.emplace(std::string(name), ts::TsSeries{}).first;
    }
    it->second.total += n;
    it->second.windows[now() / doc.window_ns] += n;
  }

  void observe(std::string_view name, std::uint64_t value) {
    auto it = doc.hists.find(name);
    if (it == doc.hists.end()) {
      it = doc.hists.emplace(std::string(name), ts::TsHist{}).first;
    }
    it->second.windows[now() / doc.window_ns].record(value);
  }

  std::int64_t total(std::string_view name) const {
    const auto it = doc.series.find(name);
    return it == doc.series.end() ? 0 : it->second.total;
  }
};

SecureContainer& new_sandbox(NodeCtx& ctx) {
  return ctx.platform.create_container("sbx" + std::to_string(ctx.created++));
}

// Boots a fresh sandbox: restore from the node's wal snapshot when one
// exists, cold boot otherwise. Returns nullptr when the boot OOM-killed —
// the dead sandbox keeps its frames (a real exhausted host does too).
Task<SecureContainer*> boot_sandbox(NodeCtx& ctx) {
  SecureContainer& sandbox = new_sandbox(ctx);
  const std::uint64_t start = ctx.now();
  if (ctx.snapshot_ok) {
    co_await sandbox.boot(ctx.spec.restore_init_pages,
                          ctx.spec.restore_image_bytes);
  } else {
    co_await sandbox.boot(ctx.spec.cold_init_pages, ctx.spec.cold_image_bytes);
  }
  if (sandbox.boot_failed()) {
    ctx.count("fleet/oom_kills");
    ctx.count("fleet/retired");
    co_return nullptr;
  }
  if (ctx.snapshot_ok) {
    ctx.observe("fleet/boot_restore_ns", ctx.now() - start);
    ctx.count("fleet/restore_starts");
  } else {
    ctx.observe("fleet/boot_cold_ns", ctx.now() - start);
    ctx.count("fleet/cold_starts");
  }
  co_return &sandbox;
}

// Pre-boots one warm-pool sandbox at node start.
Task<void> prewarm(NodeCtx& ctx) {
  SecureContainer* sandbox = co_await boot_sandbox(ctx);
  if (sandbox != nullptr) {
    ctx.count("fleet/prewarm_boots");
    ctx.idle.push_back(sandbox);
  }
}

// One launch, arrival to completion.
Task<void> handle_launch(NodeCtx& ctx) {
  Simulation& sim = ctx.platform.sim();
  const std::uint64_t arrival = sim.now();
  ctx.count("fleet/launches");
  co_await ctx.slots.acquire();
  ctx.observe("fleet/queue_wait_ns", sim.now() - arrival);

  SecureContainer* sandbox = nullptr;
  if (!ctx.idle.empty()) {
    sandbox = ctx.idle.front();
    ctx.idle.pop_front();
    // Activation: one syscall round trip wakes the parked sandbox.
    const std::uint64_t t0 = sim.now();
    co_await sandbox->kernel().sys_getpid(sandbox->vcpu(0),
                                          *sandbox->init_process());
    ctx.observe("fleet/warm_activate_ns", sim.now() - t0);
    ctx.count("fleet/warm_starts");
  } else {
    sandbox = co_await boot_sandbox(ctx);
    if (sandbox == nullptr) {
      // The slot is deliberately leaked with the dead sandbox: its frames
      // stay pinned, so the node's effective capacity shrinks.
      ctx.count("fleet/crashes");
      co_return;
    }
  }

  const std::uint64_t start_latency = sim.now() - arrival;
  ctx.observe("fleet/start_ns", start_latency);
  if (start_latency > ctx.spec.deadline_ns) {
    // The runtime gave up on this launch; the sandbox itself is healthy.
    ctx.count("fleet/deadline_miss");
    ctx.count("fleet/crashes");
    ctx.idle.push_back(sandbox);
    ctx.slots.release();
    co_return;
  }

  // Function body: map the working set, touch it, syscall, compute.
  Vcpu& vcpu = sandbox->vcpu(0);
  GuestProcess& proc = *sandbox->init_process();
  GuestKernel& kernel = sandbox->kernel();
  const std::uint64_t fn_start = sim.now();
  const std::uint64_t base = co_await kernel.sys_mmap(
      vcpu, proc, static_cast<std::uint64_t>(ctx.spec.fn_pages) * 4096);
  for (int i = 0; i < ctx.spec.fn_pages && !proc.oom_killed(); ++i) {
    co_await kernel.touch(vcpu, proc, base + static_cast<std::uint64_t>(i) * 4096,
                          /*write=*/true);
  }
  for (int i = 0; i + 1 < ctx.spec.fn_syscalls; ++i) {
    co_await kernel.sys_getpid(vcpu, proc);
  }
  const std::uint64_t sys_t0 = sim.now();
  co_await kernel.sys_getpid(vcpu, proc);
  ctx.observe("fleet/syscall_ns", sim.now() - sys_t0);
  if (ctx.spec.fn_compute_ns > 0) {
    co_await sandbox->compute(ctx.spec.fn_compute_ns);
  }
  if (!proc.oom_killed()) {
    co_await kernel.sys_munmap(vcpu, proc, base);
  }
  ctx.observe("fleet/fn_ns", sim.now() - fn_start);

  if (proc.oom_killed()) {
    // Killed mid-invocation: sandbox and slot retire together.
    ctx.count("fleet/oom_kills");
    ctx.count("fleet/crashes");
    ctx.count("fleet/retired");
    co_return;
  }
  ctx.count("fleet/completions");
  ctx.idle.push_back(sandbox);
  ctx.slots.release();
}

// Node main: snapshot template, warm pool, then the arrival stream.
Task<void> node_driver(NodeCtx& ctx, std::vector<std::uint64_t> arrivals) {
  Simulation& sim = ctx.platform.sim();
  // Template sandbox: cold-boot once, checkpoint its engine through the
  // WAL, and verify the checkpoint recovers cleanly. Modes without a
  // shadow engine (EPT, direct paging) cannot snapshot — the hypervisor
  // has no guest-visible mapping state to serialize — so their fleets pay
  // the full cold boot on every scale-up, exactly the RunD gap the paper
  // motivates.
  SecureContainer& tmpl = new_sandbox(ctx);
  const std::uint64_t tmpl_start = ctx.now();
  co_await tmpl.boot(ctx.spec.cold_init_pages, ctx.spec.cold_image_bytes);
  if (!tmpl.boot_failed()) {
    ctx.observe("fleet/boot_cold_ns", ctx.now() - tmpl_start);
    ctx.count("fleet/cold_starts");
    if (ctx.spec.snapshot_restore) {
      if (PvmMemoryEngine* engine = tmpl.shadow_engine()) {
        wal::Log log("wal:fleet-snapshot");
        engine->checkpoint_to_wal(log);
        const wal::RecoveryResult recovered = wal::recover(log.bytes());
        if (!recovered.torn_tail && recovered.last_checkpoint.has_value()) {
          ctx.snapshot_ok = true;
          ctx.snapshot_bytes = log.bytes().size();
          ctx.snapshot_records = recovered.records.size();
        }
      }
    }
    ctx.idle.push_back(&tmpl);
  } else {
    ctx.count("fleet/oom_kills");
    ctx.count("fleet/retired");
  }
  for (std::uint32_t i = 0; i < ctx.spec.warm_pool; ++i) {
    sim.spawn(prewarm(ctx), "fleet-prewarm");
  }
  for (const std::uint64_t t : arrivals) {
    if (t > sim.now()) {
      co_await sim.delay(t - sim.now());
    }
    sim.spawn(handle_launch(ctx), "fleet-launch");
  }
}

}  // namespace

std::vector<std::uint64_t> node_arrivals(const FleetSpec& spec,
                                         std::size_t node) {
  ArrivalGenerator generator(spec.arrival);
  std::vector<std::uint64_t> mine;
  for (std::uint64_t i = 0; i < spec.launches; ++i) {
    const std::uint64_t t = generator.next();
    if (place_launch(spec.seed, i, spec.nodes) == node) {
      mine.push_back(t);
    }
  }
  return mine;
}

NodeOutcome run_node(const FleetSpec& spec, DeployMode mode, std::size_t node) {
  NodeOutcome out;
  out.mode = mode;
  out.node = node;
  std::size_t mode_index = 0;
  for (std::size_t i = 0; i < spec.modes.size(); ++i) {
    if (spec.modes[i] == mode) {
      mode_index = i;
    }
  }
  try {
    PlatformConfig config;
    config.mode = mode;
    config.schedule_policy = spec.policy;
    config.schedule_seed = mix_seed(spec.schedule_seed, mode_index, node);
    VirtualPlatform platform(config);
    fault::FaultInjector injector;
    fault::FaultPlan plan = fault::FaultPlan::parse(spec.fault_plan);
    if (!plan.empty()) {
      plan.seed = mix_seed(plan.seed, mode_index, node);
      injector.arm(std::move(plan));
      platform.arm_faults(&injector);
    }
    {
      NodeCtx ctx(spec, platform);
      platform.sim().spawn(node_driver(ctx, node_arrivals(spec, node)),
                           "fleet-driver");
      platform.sim().run();
      // Launches still parked in the admission queue when the event stream
      // drained never started: the node starved them.
      const std::size_t starved = platform.sim().pending_task_count();
      if (starved > 0) {
        ctx.count("fleet/starved", static_cast<std::int64_t>(starved));
        ctx.count("fleet/crashes", static_cast<std::int64_t>(starved));
      }
      // Destroy the abandoned frames while ctx (and its Resource) are
      // still alive — the frames hold pointers into both.
      platform.sim().abandon_pending();

      out.events = platform.sim().events_processed();
      out.sim_ns = platform.sim().now();
      out.containers = ctx.created;
      out.snapshot_bytes = ctx.snapshot_bytes;
      out.snapshot_records = ctx.snapshot_records;

      obs::BenchExport bench("pvm-fleet/node");
      bench.add_run(
          std::string(deploy_mode_token(mode)) + "/n" + std::to_string(node),
          platform.sim(), platform.counters(), nullptr,
          {{"launches", static_cast<double>(ctx.total("fleet/launches"))},
           {"completions", static_cast<double>(ctx.total("fleet/completions"))},
           {"warm_starts", static_cast<double>(ctx.total("fleet/warm_starts"))},
           {"restore_starts",
            static_cast<double>(ctx.total("fleet/restore_starts"))},
           {"cold_starts", static_cast<double>(ctx.total("fleet/cold_starts"))},
           {"oom_kills", static_cast<double>(ctx.total("fleet/oom_kills"))},
           {"deadline_miss",
            static_cast<double>(ctx.total("fleet/deadline_miss"))},
           {"starved", static_cast<double>(ctx.total("fleet/starved"))},
           {"crashes", static_cast<double>(ctx.total("fleet/crashes"))},
           {"containers", static_cast<double>(ctx.created)},
           {"snapshot_bytes", static_cast<double>(ctx.snapshot_bytes)}},
          /*alloc_json=*/{}, /*include_resources=*/false);
      out.bench_json = bench.to_json();
      out.doc = std::move(ctx.doc);
      out.ok = true;
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

FleetResult run_fleet(const FleetSpec& spec, int jobs,
                      const std::vector<ts::SloSpec>& slos) {
  if (spec.nodes == 0 || spec.modes.empty()) {
    throw std::invalid_argument("fleet spec needs nodes >= 1 and >= 1 mode");
  }
  sweep::Stopwatch stopwatch;
  const std::size_t total = spec.modes.size() * spec.nodes;
  std::vector<NodeOutcome> outcomes = sweep::run_indexed<NodeOutcome>(
      total, jobs, [&](std::size_t index) {
        return run_node(spec, spec.modes[index / spec.nodes],
                        index % spec.nodes);
      });

  FleetResult result;
  result.timing.jobs = sweep::effective_jobs(jobs);
  result.timing.cells = total;
  for (std::size_t m = 0; m < spec.modes.size(); ++m) {
    FleetGroup group;
    group.mode = spec.modes[m];
    group.rollup.window_ns = spec.window_ns;
    for (std::size_t n = 0; n < spec.nodes; ++n) {
      NodeOutcome& outcome = outcomes[m * spec.nodes + n];
      result.timing.events += outcome.events;
      std::string merge_error;
      if (!ts::merge_timeseries(&group.rollup, outcome.doc, &merge_error)) {
        throw std::runtime_error("fleet rollup merge: " + merge_error);
      }
      group.nodes.push_back(std::move(outcome));
    }
    result.groups.push_back(std::move(group));
  }
  result.fleetwide.window_ns = spec.window_ns;
  for (const FleetGroup& group : result.groups) {
    const ts::TsDoc prefixed = ts::prefix_timeseries(
        group.rollup, std::string(deploy_mode_token(group.mode)) + "/");
    std::string merge_error;
    if (!ts::merge_timeseries(&result.fleetwide, prefixed, &merge_error)) {
      throw std::runtime_error("fleet-wide merge: " + merge_error);
    }
  }
  ts::evaluate_slos(&result.fleetwide, slos);
  result.slos = result.fleetwide.slos;
  result.timing.wall_seconds = stopwatch.seconds();
  return result;
}

namespace {

void render_rollup(obs::JsonWriter& w, const ts::TsDoc& rollup) {
  w.begin_object();
  w.key("counts").begin_object();
  for (const auto& [name, series] : rollup.series) {
    w.key(name).value(series.total);
  }
  w.end_object();
  w.key("latency").begin_object();
  for (const auto& [name, hist] : rollup.hists) {
    const MergeableHistogram h = hist.cumulative();
    w.key(name).begin_object();
    w.key("count").value(h.count());
    w.key("p50").value(h.quantile(0.50));
    w.key("p99").value(h.quantile(0.99));
    w.key("p999").value(h.quantile(0.999));
    w.key("max").value(h.max());
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string render_fleet_json(const FleetSpec& spec, const FleetResult& result,
                              const sweep::SweepTiming* timing) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value(kFleetSchemaVersion);

  w.key("spec").begin_object();
  w.key("arrival").value(spec.arrival.spec_string());
  w.key("launches").value(spec.launches);
  w.key("nodes").value(static_cast<std::uint64_t>(spec.nodes));
  w.key("capacity").value(static_cast<std::int64_t>(spec.capacity));
  w.key("warm_pool").value(static_cast<std::int64_t>(spec.warm_pool));
  w.key("snapshot_restore").value(spec.snapshot_restore);
  w.key("cold_init_pages").value(static_cast<std::int64_t>(spec.cold_init_pages));
  w.key("restore_init_pages")
      .value(static_cast<std::int64_t>(spec.restore_init_pages));
  w.key("cold_image_bytes").value(spec.cold_image_bytes);
  w.key("restore_image_bytes").value(spec.restore_image_bytes);
  w.key("deadline_ns").value(spec.deadline_ns);
  w.key("window_ns").value(spec.window_ns);
  w.key("fn_pages").value(static_cast<std::int64_t>(spec.fn_pages));
  w.key("fn_syscalls").value(static_cast<std::int64_t>(spec.fn_syscalls));
  w.key("fn_compute_ns").value(spec.fn_compute_ns);
  w.key("fault_plan").value(spec.fault_plan);
  w.key("policy").value(schedule_policy_name(spec.policy));
  w.key("schedule_seed").value(spec.schedule_seed);
  w.key("seed").value(spec.seed);
  w.key("modes").begin_array();
  for (const DeployMode mode : spec.modes) {
    w.value(deploy_mode_token(mode));
  }
  w.end_array();
  w.end_object();

  w.key("groups").begin_array();
  for (const FleetGroup& group : result.groups) {
    w.begin_object();
    w.key("mode").value(deploy_mode_token(group.mode));
    w.key("nodes").begin_array();
    for (const NodeOutcome& node : group.nodes) {
      w.begin_object();
      w.key("node").value(static_cast<std::uint64_t>(node.node));
      w.key("ok").value(node.ok);
      if (!node.ok) {
        w.key("error").value(node.error);
      }
      w.key("events").value(node.events);
      w.key("sim_ns").value(node.sim_ns);
      w.key("containers").value(node.containers);
      w.key("snapshot_bytes").value(node.snapshot_bytes);
      w.key("snapshot_records").value(node.snapshot_records);
      if (!node.bench_json.empty()) {
        w.key("bench").raw(node.bench_json);
      }
      w.end_object();
    }
    w.end_array();
    w.key("rollup");
    render_rollup(w, group.rollup);
    w.end_object();
  }
  w.end_array();

  w.key("slos");
  ts::render_slo_results(w, result.slos);

  if (timing != nullptr) {
    w.key("timing").begin_object();
    w.key("jobs").value(static_cast<std::int64_t>(timing->jobs));
    w.key("cells").value(static_cast<std::uint64_t>(timing->cells));
    w.key("events").value(timing->events);
    w.key("wall_seconds").value(timing->wall_seconds);
    w.key("events_per_second").value(timing->events_per_second());
    w.end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

}  // namespace pvm::fleet
