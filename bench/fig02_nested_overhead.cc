// Figure 2: overhead analysis of nested virtualization — execution time of
// kvm (NST) normalized to kvm (BM).
//
// Paper shape: LMbench ops without intensive memory activity stay near 1x;
// fork/exec/sh grow; the 16-container concurrent workloads explode (kbuild
// ~5x, SPECjbb up to two orders of magnitude).

#include "bench/bench_common.h"
#include "src/workloads/apps.h"
#include "src/workloads/lmbench.h"

namespace pvm {
namespace {

double kbuild_mean_seconds(const std::string& label, const PlatformConfig& config,
                           int containers, const bench::EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  AppParams params;
  params.size = 0.5 * bench_scale();
  const ContainersResult result = run_containers(
      platform, containers,
      [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return app_kbuild(c, vcpu, proc, params);
      });
  hooks.record(label, platform.sim(), platform.counters(),
               {{"mean_seconds", result.mean_seconds()}});
  return result.mean_seconds();
}

double specjbb_mean_seconds(const std::string& label, const PlatformConfig& config,
                            int containers, const bench::EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  AppParams params;
  params.size = 0.5 * bench_scale();
  const ContainersResult result = run_containers(
      platform, containers,
      [&](int, SecureContainer& c, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return [](SecureContainer& cc, Vcpu& v, GuestProcess& p, AppParams ap) -> Task<void> {
          (void)co_await app_specjbb(cc, v, p, ap);
        }(c, vcpu, proc, params);
      });
  hooks.record(label, platform.sim(), platform.counters(),
               {{"mean_seconds", result.mean_seconds()}});
  return result.mean_seconds();
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "fig02_nested_overhead");
  print_header("Figure 2: kvm (NST) execution time normalized to kvm (BM)",
               "PVM paper, Fig. 2",
               "LMbench ops: 1 container; kbuild/specjbb: 16 containers");

  const struct {
    const char* name;
    LmbenchOp op;
    int iterations;
  } kOps[] = {
      {"null call", LmbenchOp::kNullIo, 200},   {"stat", LmbenchOp::kStat, 200},
      {"open/close", LmbenchOp::kOpenClose, 100}, {"slct tcp", LmbenchOp::kSelectTcp, 200},
      {"sig inst", LmbenchOp::kSigInstall, 200}, {"sig hndl", LmbenchOp::kSigHandle, 200},
      {"fork", LmbenchOp::kForkProc, 20},       {"exec", LmbenchOp::kExecProc, 20},
      {"sh", LmbenchOp::kShProc, 10},
  };

  const bench::EntryHooks hooks = io.hooks();
  PlatformConfig bm_config;
  bm_config.mode = DeployMode::kKvmEptBm;
  PlatformConfig nst_config;
  nst_config.mode = DeployMode::kKvmEptNst;
  TextTable table({"benchmark", "kvm (BM)", "kvm (NST)", "normalized"});
  for (const auto& op : kOps) {
    const std::uint64_t bm =
        bench::lmbench_latency_ns(std::string(op.name) + "/bm", bm_config, op.op,
                                  op.iterations, /*boot_pages=*/256, hooks);
    const std::uint64_t nst =
        bench::lmbench_latency_ns(std::string(op.name) + "/nst", nst_config, op.op,
                                  op.iterations, /*boot_pages=*/256, hooks);
    table.add_row({op.name, TextTable::cell(to_us(bm)) + " us",
                   TextTable::cell(to_us(nst)) + " us",
                   TextTable::cell(static_cast<double>(nst) / static_cast<double>(bm))});
  }

  {
    const double bm = kbuild_mean_seconds("kbuild/bm", bm_config, 16, hooks);
    const double nst = kbuild_mean_seconds("kbuild/nst", nst_config, 16, hooks);
    table.add_row({"kbuild (16c)", TextTable::cell(bm) + " s", TextTable::cell(nst) + " s",
                   TextTable::cell(nst / bm)});
  }
  {
    const double bm = specjbb_mean_seconds("specjbb/bm", bm_config, 16, hooks);
    const double nst = specjbb_mean_seconds("specjbb/nst", nst_config, 16, hooks);
    table.add_row({"specjbb (16c)", TextTable::cell(bm) + " s", TextTable::cell(nst) + " s",
                   TextTable::cell(nst / bm)});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Paper shape: plain syscall ops near 1x; fork/exec/sh above 1x;\n");
  std::printf("concurrent kbuild ~5x and specjbb orders of magnitude worse.\n");
  return 0;
}
