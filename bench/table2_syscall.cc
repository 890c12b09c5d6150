// Table 2: execution time (us) of the get_pid syscall, KPTI on/off, with and
// without PVM's direct switching.
//
// Paper values:
//   kvm-ept (BM)          0.22/0.06
//   kvm-spt (BM)          2.09/0.06
//   pvm (BM) none         1.91/1.91
//   pvm (BM) direct       0.29/0.29
//   kvm (NST)             0.23/0.06
//   pvm (NST) none        1.93/1.93
//   pvm (NST) direct      0.3/0.3
//
// The measurement body (bench::syscall_getpid_us) lives in bench/entries.h
// so pvm-matrix can run it as a library call.

#include "bench/bench_common.h"

namespace pvm {
namespace {

std::string cell_on_off(const std::string& name, PlatformConfig config,
                        const bench::EntryHooks& hooks) {
  config.kpti = true;
  const double on = bench::syscall_getpid_us(name + "/kpti", config, hooks);
  config.kpti = false;
  const double off = bench::syscall_getpid_us(name + "/nokpti", config, hooks);
  return TextTable::cell(on) + "/" + TextTable::cell(off);
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table2_syscall");
  print_header("Table 2: get_pid syscall time (us), KPTI enabled/disabled",
               "PVM paper, Table 2",
               "Direct switching is the Fig. 8 optimization; 'none' disables it");

  const bench::EntryHooks hooks = io.hooks();
  TextTable table({"Configuration", "Optimization", "Syscall (us)"});

  PlatformConfig config;
  config.mode = DeployMode::kKvmEptBm;
  table.add_row({"kvm-ept (BM)", "", cell_on_off("kvm-ept (BM)", config, hooks)});
  config.mode = DeployMode::kKvmSptBm;
  table.add_row({"kvm-spt (BM)", "", cell_on_off("kvm-spt (BM)", config, hooks)});

  config.mode = DeployMode::kPvmBm;
  config.direct_switch = false;
  table.add_row({"pvm (BM)", "none", cell_on_off("pvm (BM)/none", config, hooks)});
  config.direct_switch = true;
  table.add_row({"pvm (BM)", "direct-switch", cell_on_off("pvm (BM)/direct", config, hooks)});

  config.mode = DeployMode::kKvmEptNst;
  table.add_row({"kvm (NST)", "", cell_on_off("kvm (NST)", config, hooks)});

  config.mode = DeployMode::kPvmNst;
  config.direct_switch = false;
  table.add_row({"pvm (NST)", "none", cell_on_off("pvm (NST)/none", config, hooks)});
  config.direct_switch = true;
  table.add_row({"pvm (NST)", "direct-switch", cell_on_off("pvm (NST)/direct", config, hooks)});

  std::printf("%s\n", table.render().c_str());
  std::printf("Shape checks: kvm-spt is the slowest (trapped KPTI CR3 swaps);\n");
  std::printf("direct switching narrows pvm's gap to ~1.3x of kvm-ept; KPTI does\n");
  std::printf("not change pvm (the sysret exit remains either way).\n");
  return 0;
}
