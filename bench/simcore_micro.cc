// google-benchmark microbenchmarks of the simulation substrate itself —
// wall-clock performance of the pieces every experiment leans on (page
// walks, TLB, DES scheduling, fault protocols). Not a paper figure; used to
// keep the harness fast enough for the full sweeps.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/arch/page_table.h"
#include "src/arch/tlb.h"
#include "src/backends/platform.h"
#include "src/core/spt_locks.h"
#include "src/mmu/two_dim_walk.h"
#include "src/obs/flight.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/sim/random.h"

namespace pvm {
namespace {

// google-benchmark registers free functions, so the platform benchmarks reach
// main's BenchIo through this file-local copy of its hooks.
bench::EntryHooks g_hooks;

void BM_PageTableMap(benchmark::State& state) {
  PageTable table("bench", nullptr);
  std::uint64_t va = 0;
  for (auto _ : state) {
    table.map(va, va >> kPageShift, PteFlags::rw_user());
    va += kPageSize;
  }
}
BENCHMARK(BM_PageTableMap);

void BM_PageTableWalkHit(benchmark::State& state) {
  PageTable table("bench", nullptr);
  for (std::uint64_t va = 0; va < 1024 * kPageSize; va += kPageSize) {
    table.map(va, va >> kPageShift, PteFlags::rw_user());
  }
  Xoshiro256 rng(1);
  for (auto _ : state) {
    const std::uint64_t va = rng.next_below(1024) * kPageSize;
    benchmark::DoNotOptimize(table.walk(va, AccessType::kRead, true));
  }
}
BENCHMARK(BM_PageTableWalkHit);

void BM_TwoDimWalk(benchmark::State& state) {
  FrameAllocator frames("bench", 1u << 20);
  PageTable gpt("gpt", &frames);
  PageTable ept("ept", nullptr);
  for (std::uint64_t va = 0; va < 256 * kPageSize; va += kPageSize) {
    const std::uint64_t frame = frames.allocate_or_throw();
    gpt.map(va, frame, PteFlags::rw_user());
    ept.map(frame << kPageShift, frame + 1000, PteFlags::rw_kernel());
  }
  const WalkResult walk = gpt.walk(0, AccessType::kRead, true);
  for (int i = 0; i < walk.levels_walked; ++i) {
    ept.map(walk.node_frames[i] << kPageShift, walk.node_frames[i] + 1000,
            PteFlags::rw_kernel());
  }
  Xoshiro256 rng(2);
  for (auto _ : state) {
    const std::uint64_t va = rng.next_below(256) * kPageSize;
    benchmark::DoNotOptimize(walk_two_dimensional(gpt, ept, va, AccessType::kRead, true));
  }
}
BENCHMARK(BM_TwoDimWalk);

void BM_TlbLookupHit(benchmark::State& state) {
  Tlb tlb;
  for (std::uint64_t vpn = 0; vpn < 1024; ++vpn) {
    tlb.insert(1, 1, vpn, Pte::make(vpn, PteFlags::rw_user()));
  }
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(1, 1, rng.next_below(1024)));
  }
}
BENCHMARK(BM_TlbLookupHit);

// Lookup plus refill over an 8,192-page footprint (32 regions of 256 pages,
// 1 GiB apart) swept in order through the default 1,536 entries: perfbench's
// arch.tlb_lookup_ns probe. Every access misses, so each iteration is two
// failed index probes (the PCID tag, then its global alias), a round-robin
// eviction and an insert.
void BM_TlbMissRefill(benchmark::State& state) {
  constexpr std::uint64_t kPagesPerRegion = 256;
  constexpr std::uint64_t kPages = 32 * kPagesPerRegion;
  Tlb tlb;
  std::uint64_t page = 0;
  for (auto _ : state) {
    const std::uint64_t vpn =
        ((page / kPagesPerRegion + 1) << (30 - kPageShift)) + page % kPagesPerRegion;
    const Tlb::LookupResult result = tlb.lookup(1, 1, vpn);
    benchmark::DoNotOptimize(result);
    if (!result.hit) {
      tlb.insert(1, 1, vpn, Pte::make(vpn, PteFlags::rw_user()));
    }
    page = (page + 1) % kPages;
  }
}
BENCHMARK(BM_TlbMissRefill);

// Raw event-queue cost, isolated from coroutine resumption: the simulator's
// steady-state pattern (N live events; pop the minimum, advance the clock,
// push a successor at now + delta). This is where the calendar-queue overhaul
// shows up undiluted — BM_SimulationEventThroughput wraps the same operations
// in coroutine frame switches that dominate its per-event budget.
// BM_EventQueueBinaryHeap is the pre-overhaul std::priority_queue compiled
// into the same binary, so one run yields a like-for-like ratio.

struct HeapOrderedEvent {
  std::uint64_t when, tie, seq;
  std::int64_t root;
  std::coroutine_handle<> handle;
  bool operator>(const HeapOrderedEvent& other) const {
    if (when != other.when) return when > other.when;
    if (tie != other.tie) return tie > other.tie;
    return seq > other.seq;
  }
};

void BM_EventQueueBinaryHeap(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  const std::uint64_t delta = static_cast<std::uint64_t>(state.range(1));
  std::priority_queue<HeapOrderedEvent, std::vector<HeapOrderedEvent>,
                      std::greater<HeapOrderedEvent>>
      queue;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  for (int i = 0; i < live; ++i) {
    queue.push({now + delta, seq, seq, -1, {}});
    ++seq;
  }
  for (auto _ : state) {
    const HeapOrderedEvent event = queue.top();
    queue.pop();
    now = event.when;
    queue.push({now + delta, seq, seq, -1, {}});
    ++seq;
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueBinaryHeap)
    ->ArgNames({"live", "delta"})
    ->Args({8, 10})
    ->Args({1024, 1000})
    ->Args({16384, 50})
    ->Args({1024, 0});

void BM_EventQueueCalendar(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  const std::uint64_t delta = static_cast<std::uint64_t>(state.range(1));
  CalendarQueue queue;
  std::uint64_t seq = 0;
  std::uint64_t now = 0;
  for (int i = 0; i < live; ++i) {
    queue.push(SimEvent{now + delta, seq, seq, -1, {}});
    ++seq;
  }
  for (auto _ : state) {
    const SimEvent event = queue.pop();
    now = event.when;
    queue.push(SimEvent{now + delta, seq, seq, -1, {}});
    ++seq;
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCalendar)
    ->ArgNames({"live", "delta"})
    ->Args({8, 10})
    ->Args({1024, 1000})
    ->Args({16384, 50})
    ->Args({1024, 0});

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int t = 0; t < 8; ++t) {
      sim.spawn([](Simulation& s) -> Task<void> {
        for (int i = 0; i < 1000; ++i) {
          co_await s.delay(10);
        }
      }(sim));
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 8000);
}
BENCHMARK(BM_SimulationEventThroughput);

void BM_ResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    Resource lock(sim, "lock");
    for (int t = 0; t < 16; ++t) {
      sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
        for (int i = 0; i < 200; ++i) {
          ScopedResource guard = co_await r.scoped();
          co_await s.delay(5);
        }
      }(sim, lock));
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 3200);
}
BENCHMARK(BM_ResourceContention);

// Lock instance churn: 20k lazily created per-gfn rmap lock instances of
// one class, then ~SptLockSet destroying them newest first, as a pvm (NST)
// teardown does. Creating and destroying an instance must each be O(1); an
// index that searches, or a registry entry per instance, makes the teardown
// slow or quadratic.
void BM_ResourceChurn(benchmark::State& state) {
  const auto locks = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    SptLockSet set(sim, "vm0", /*fine_grained=*/true);
    for (std::uint64_t gfn = 0; gfn < locks; ++gfn) {
      set.rmap_lock(gfn);
    }
    benchmark::DoNotOptimize(set.rmap_lock_class().instances());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * locks));
}
BENCHMARK(BM_ResourceChurn)->Arg(20000);

// The fault protocol the BM_FullFaultProtocol* rows time. Construction is
// the untimed setup: a pvm (NST) platform (seen by the bench hooks, which arm
// --faults) with one booted container whose init process has a 64 MiB heap
// VMA. `spans`, when given, records from before the boot.
class FaultProtocol {
 public:
  explicit FaultProtocol(obs::SpanRecorder* spans = nullptr) : platform_(pvm_nst()) {
    g_hooks.on_platform(platform_);
    if (spans != nullptr) {
      spans->set_enabled(true);
      platform_.sim().set_spans(spans);
    }
    container_ = &platform_.create_container("c0");
    platform_.sim().spawn(container_->boot(8));
    platform_.sim().run();
    proc_ = container_->init_process();
    proc_->vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 64ull << 20, true};
  }

  // The timed part: first-touch writes to kPages fresh heap pages on vCPU 0.
  void touch_pages() {
    platform_.sim().spawn([](SecureContainer& cc, GuestProcess& p) -> Task<void> {
      for (std::uint64_t i = 0; i < kPages; ++i) {
        co_await cc.kernel().touch(cc.vcpu(0), p, GuestProcess::kHeapBase + i * kPageSize,
                                   true);
      }
    }(*container_, *proc_));
    platform_.sim().run();
  }

  VirtualPlatform& platform() { return platform_; }

  static constexpr std::uint64_t kPages = 512;

 private:
  static PlatformConfig pvm_nst() {
    PlatformConfig config;
    config.mode = DeployMode::kPvmNst;
    return config;
  }

  VirtualPlatform platform_;
  SecureContainer* container_ = nullptr;
  GuestProcess* proc_ = nullptr;
};

void BM_FullFaultProtocolPvmNst(benchmark::State& state) {
  // static: google-benchmark may invoke the function several times while
  // calibrating the iteration count, and the export should hold exactly one
  // platform capture for this label.
  static bool captured = false;
  for (auto _ : state) {
    state.PauseTiming();
    FaultProtocol protocol;
    state.ResumeTiming();
    protocol.touch_pages();

    if (!captured) {
      // One platform-backed capture per benchmark (outside the timed
      // region), so --report and the export's counter/contention sections
      // work here like in the table/figure binaries.
      state.PauseTiming();
      // Distinct label from the timing row google-benchmark reports: two
      // runs sharing one label would make label-keyed diffs (benchdiff)
      // ambiguous about which run carries which metrics.
      VirtualPlatform& platform = protocol.platform();
      g_hooks.record("BM_FullFaultProtocolPvmNst_platform", platform.sim(),
                     platform.counters(), {{"pages_touched", 512.0}});
      captured = true;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * FaultProtocol::kPages);
}
BENCHMARK(BM_FullFaultProtocolPvmNst);

// The same protocol with a span recorder attached and enabled: the cost
// ceiling of running with full observability on. Compare against
// BM_FullFaultProtocolPvmNst to measure the recorder's overhead; the
// no-recorder run is the hot path every experiment uses and must not regress.
void BM_FullFaultProtocolPvmNstObserved(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    obs::SpanRecorder recorder;
    FaultProtocol protocol(&recorder);
    state.ResumeTiming();
    protocol.touch_pages();
    benchmark::DoNotOptimize(recorder.spans().size());
  }
  state.SetItemsProcessed(state.iterations() * FaultProtocol::kPages);
}
BENCHMARK(BM_FullFaultProtocolPvmNstObserved);

// The critical-path fold (prof::fold_profile) over the span records of one
// observed fault protocol, recorded once outside the timed loop; items are
// span records folded. --profile on every bench binary and pvm-matrix runs
// this fold.
void BM_ProfileFold(benchmark::State& state) {
  obs::SpanRecorder recorder;
  FaultProtocol protocol(&recorder);
  protocol.touch_pages();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prof::fold_profile(recorder));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    recorder.spans().size()));
}
BENCHMARK(BM_ProfileFold);

// The always-on flight recorder's write path: events cycle over 64 tracks
// (vCPU run loops, watchdogs, agents), and every other event is a lock
// acquire or release whose name is interned, over 4096 names already seen,
// as the first acquire of each SPT lock does. Items are events recorded.
void BM_FlightRecord(benchmark::State& state) {
  constexpr std::int64_t kTracks = 64;
  constexpr std::size_t kLocks = 4096;
  constexpr std::int64_t kEventsPerIteration = 1024;
  std::vector<std::string> lock_names;
  for (std::size_t i = 0; i < kLocks; ++i) {
    lock_names.push_back("c0.rmap_lock." + std::to_string(i));
  }
  std::uint64_t now = 0;
  std::int64_t track = 0;
  flight::FlightRecorder recorder;
  recorder.bind(&now, &track);
  for (const std::string& name : lock_names) {
    recorder.intern(name);
  }
  std::size_t lock = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kEventsPerIteration; ++i) {
      ++now;
      track = i % kTracks;
      switch (i % 4) {
        case 0:
          recorder.record(flight::EventKind::kLockAcquire,
                          recorder.intern(lock_names[lock]));
          break;
        case 2:
          recorder.record(flight::EventKind::kLockRelease,
                          recorder.intern(lock_names[lock]));
          lock = (lock + 1) % kLocks;
          break;
        default:
          recorder.record(flight::EventKind::kSwitcherExit, 0, 0, 4);
          break;
      }
    }
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(recorder.total_events());
  state.SetItemsProcessed(state.iterations() * kEventsPerIteration);
}
BENCHMARK(BM_FlightRecord);

// Console reporter that also feeds each benchmark's wall-clock numbers into
// the shared BenchExport, so `--json` emits the same pvm.bench.v1 schema as
// every table/figure binary (benchdiff and pvm-stat consume it uniformly).
class ExportingReporter : public benchmark::ConsoleReporter {
 public:
  explicit ExportingReporter(BenchIo& io) : io_(io) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      std::vector<std::pair<std::string, double>> values = {
          {"real_time_ns", run.GetAdjustedRealTime()},
          {"cpu_time_ns", run.GetAdjustedCPUTime()},
      };
      for (const auto& [name, counter] : run.counters) {
        values.emplace_back(name, counter.value);
      }
      io_.record_values(run.benchmark_name(), std::move(values));
    }
  }

 private:
  BenchIo& io_;
};

}  // namespace
}  // namespace pvm

// Custom main instead of BENCHMARK_MAIN(): google-benchmark strips its own
// --benchmark_* flags first and BenchIo parses the rest, so simcore_micro
// takes the same flags as every other bench binary and rejects the same
// unknown ones.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  pvm::BenchIo io(argc, argv, "simcore_micro");
  pvm::g_hooks = io.hooks();
  pvm::ExportingReporter reporter(io);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  io.finish();
  benchmark::Shutdown();
  return 0;
}
