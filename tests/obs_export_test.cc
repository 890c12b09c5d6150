// Integration tests for the observability exports:
//   - golden-file check of the Chrome trace for a single-fault pvm (NST) run,
//   - byte-determinism of both the Chrome trace and the bench JSON export,
//   - the Fig. 10 diagnosis: under 32 concurrent fault-heavy processes the
//     global mmu_lock's share of total lock wait (coarse locking) exceeds the
//     combined share of the fine-grained meta/pt/rmap trio.
//
// Regenerate the golden file with PVM_UPDATE_GOLDEN=1 after an intentional
// format or instrumentation change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/backends/platform.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/contention.h"
#include "src/obs/json_parse.h"
#include "src/obs/metrics_json.h"
#include "src/obs/prof.h"
#include "src/obs/span.h"
#include "src/sim/resource.h"
#include "src/workloads/memstress.h"
#include "src/workloads/runner.h"

#ifndef PVM_GOLDEN_DIR
#define PVM_GOLDEN_DIR "tests/golden"
#endif

namespace pvm {
namespace {

struct OneFaultExports {
  std::string trace;
  std::string bench_json;
};

// Boots pvm (NST), then attaches the recorder so the exports cover exactly
// one guest page fault (and the protocol steps it decomposes into).
OneFaultExports run_one_fault_pvm_nst() {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(8), "boot");
  platform.sim().run();
  GuestProcess& proc = *c.init_process();
  proc.vmas()[GuestProcess::kHeapBase] = Vma{GuestProcess::kHeapBase, 1ull << 20, true};

  obs::SpanRecorder recorder;
  recorder.set_enabled(true);
  platform.sim().set_spans(&recorder);
  platform.sim().spawn([](SecureContainer& cc, GuestProcess& p) -> Task<void> {
    co_await cc.kernel().touch(cc.vcpu(0), p, GuestProcess::kHeapBase, true);
  }(c, proc),
                       "touch");
  platform.sim().run();

  OneFaultExports out;
  out.trace = obs::export_chrome_trace(recorder, platform.sim());
  obs::BenchExport ex("obs_export_test");
  ex.add_run("one_fault", platform.sim(), platform.counters(), &recorder,
             {{"faults", 1.0}});
  out.bench_json = ex.to_json();
  return out;
}

TEST(ObsExportTest, GoldenChromeTraceOneFaultPvmNst) {
  const std::string produced = run_one_fault_pvm_nst().trace;
  // Sanity before comparing bytes: one op span, Perfetto-required fields.
  EXPECT_NE(produced.find("\"op.page_fault\""), std::string::npos);
  EXPECT_NE(produced.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(produced.find("\"ph\":\"M\""), std::string::npos);

  const std::string path =
      std::string(PVM_GOLDEN_DIR) + "/chrome_trace_pvm_nst_one_fault.json";
  if (std::getenv("PVM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with PVM_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(produced, golden.str());
}

TEST(ObsExportTest, ExportsAreByteDeterministic) {
  const OneFaultExports a = run_one_fault_pvm_nst();
  const OneFaultExports b = run_one_fault_pvm_nst();
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bench_json, b.bench_json);
  EXPECT_NE(a.bench_json.find(obs::kBenchSchemaVersion), std::string::npos);
}

std::vector<obs::ResourceStats> run_fig10_contention(bool fine_grained_locks) {
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  config.fine_grained_locks = fine_grained_locks;
  VirtualPlatform platform(config);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(16), "boot");
  platform.sim().run();

  MemStressParams params;
  params.total_bytes = 1ull << 20;
  run_processes_in_container(platform, container, /*process_count=*/32,
                             [&](int, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
                               return memstress_process(container, vcpu, proc, params);
                             });
  return obs::collect_resource_stats(platform.sim());
}

// A resource name is user/config-controlled text that flows into every
// export: chrome-trace track metadata, the bench JSON contention table, and
// pvm.profile.v1 lock-wait paths. A hostile name (quotes, commas, control
// characters, backslashes) must come out escaped — parseable JSON that
// round-trips the exact original bytes.
TEST(ObsExportTest, HostileResourceNameSurvivesEveryExport) {
  const std::string evil = "mmu \"lock\",v2\\<\t>\nend";
  obs::SpanRecorder recorder;
  recorder.set_enabled(true);
  Simulation sim;
  sim.set_spans(&recorder);
  Resource lock(sim, evil);
  // Holder keeps the lock long enough that the second task records a
  // lock-wait span (inside an op root so the profiler attributes it).
  sim.spawn([](Simulation& s, Resource& r) -> Task<void> {
    ScopedResource guard = co_await r.scoped();
    co_await s.delay(100);
  }(sim, lock));
  sim.spawn([](Simulation& s, Resource& r, obs::SpanRecorder& spans) -> Task<void> {
    co_await s.delay(1);
    obs::SpanScope op(&spans, obs::Phase::kOpSyscall);
    ScopedResource guard = co_await r.scoped();
    co_await s.delay(10);
  }(sim, lock, recorder));
  sim.run();
  ASSERT_TRUE(recorder.lock_tracks().contains(evil));

  std::string error;

  // Chrome trace: parseable, and no raw control bytes inside it — every
  // newline in the document is structural, never part of a string.
  const std::string trace = obs::export_chrome_trace(recorder, sim);
  obs::JsonValue parsed_trace;
  ASSERT_TRUE(obs::json_parse(trace, &parsed_trace, &error)) << error;
  EXPECT_EQ(trace.find('\t'), std::string::npos);
  EXPECT_NE(trace.find("\\\"lock\\\""), std::string::npos);

  // Bench JSON: the contention table carries the name, escaped.
  obs::BenchExport bench("hostile");
  CounterSet counters;
  bench.add_run("run", sim, counters, &recorder, {{"seconds", 1.0}});
  const std::string bench_json = bench.to_json();
  obs::JsonValue parsed_bench;
  ASSERT_TRUE(obs::json_parse(bench_json, &parsed_bench, &error)) << error;
  EXPECT_EQ(bench_json.find('\t'), std::string::npos);

  // Profile: the lock-wait path embeds the name and the document round-trips
  // to the exact original bytes.
  const prof::ProfDoc doc = prof::fold_profile(recorder);
  const prof::OpProfile& op = doc.ops.at("op.syscall");
  ASSERT_TRUE(op.paths.contains("op.syscall;lock_wait:" + evil));
  const std::string profile_json = prof::render_profile_json(doc);
  prof::ProfDoc reparsed;
  ASSERT_TRUE(prof::parse_profile_json(profile_json, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed, doc);
}

// The one row of the lock class whose name ends in `kind` (".pt_lock"), or
// nullptr.
const obs::ResourceStats* class_row(const std::vector<obs::ResourceStats>& stats,
                                    std::string_view kind) {
  const obs::ResourceStats* found = nullptr;
  for (const obs::ResourceStats& row : stats) {
    if (row.name.ends_with(kind)) {
      EXPECT_EQ(found, nullptr) << "two rows end in " << kind;
      found = &row;
    }
  }
  return found;
}

TEST(ObsContentionTest, CoarseMmuLockWaitExceedsFineGrainedTrio) {
  const std::vector<obs::ResourceStats> coarse = run_fig10_contention(/*fine_grained_locks=*/false);
  const std::vector<obs::ResourceStats> fine = run_fig10_contention(/*fine_grained_locks=*/true);
  const obs::ResourceStats* coarse_mmu = class_row(coarse, ".mmu_lock");
  ASSERT_NE(coarse_mmu, nullptr);
  // Each of the trio's classes has its row, so the sum drops none of them.
  SimTime fine_trio_wait = 0;
  for (const std::string_view kind : {".meta_lock", ".pt_lock", ".rmap_lock"}) {
    const obs::ResourceStats* row = class_row(fine, kind);
    ASSERT_NE(row, nullptr) << kind;
    EXPECT_GT(row->acquisitions, 0u) << kind;
    fine_trio_wait += row->total_wait_ns;
  }
  // The per-page and per-gfn classes stand for many lock instances.
  EXPECT_GT(class_row(fine, ".pt_lock")->instances, 1u);
  EXPECT_GT(class_row(fine, ".rmap_lock")->instances, 1u);
  // The paper's Fig. 10 story: one global mmu_lock serializes 32 faulting
  // processes; splitting it into the meta/pt/rmap trio removes most of the
  // queueing on the identical workload.
  EXPECT_GT(coarse_mmu->total_wait_ns, 0u);
  EXPECT_GT(coarse_mmu->total_wait_ns, fine_trio_wait);
}

}  // namespace
}  // namespace pvm
