// Table 1: average round-trip latency (us) of VM exits/entries, with KPTI
// enabled/disabled.
//
// Paper values (KPTI on / off):
//              kvm (BM)     pvm (BM)     kvm (NST)    pvm (NST)
//   Hypercall  0.46/0.46    0.54/0.54    7.43/7.87    0.48/0.48
//   Exception  1.66/1.65    1.67/1.65    9.20/9.01    2.21/2.2
//   MSR        0.87/0.87    2.53/2.51    8.18/8.47    2.88/2.86
//   CPUID      0.54/0.54    0.60/0.59    7.10/7.16    0.51/0.51
//   PIO        3.79/3.39    4.91/4.54    29.34/28.27  12.94/12.03

#include "bench/bench_common.h"

namespace pvm {
namespace {

constexpr int kIterations = 2000;

double measure_op_us(const std::string& label, DeployMode mode, bool kpti, PrivOp op,
                     const bench::EntryHooks& hooks) {
  PlatformConfig config;
  config.mode = mode;
  config.kpti = kpti;
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& c = platform.create_container("c0");
  platform.sim().spawn(c.boot(8));
  platform.sim().run();

  const SimTime start = platform.sim().now();
  platform.sim().spawn([](SecureContainer& cc, PrivOp o) -> Task<void> {
    for (int i = 0; i < kIterations; ++i) {
      if (o == PrivOp::kException) {
        co_await cc.cpu().exception_roundtrip(cc.vcpu(0));
      } else {
        co_await cc.cpu().privileged_op(cc.vcpu(0), o);
      }
    }
  }(c, op));
  platform.sim().run();
  const double us = to_us(platform.sim().now() - start) / kIterations;
  hooks.record(label + (kpti ? "/kpti" : "/nokpti"), platform.sim(), platform.counters(),
               {{"roundtrip_us", us}});
  return us;
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table1_exit_latency");
  print_header("Table 1: VM exit/entry round-trip latency (us), KPTI on/off",
               "PVM paper, Table 1",
               "Each cell: measured with KPTI enabled / disabled");

  const struct {
    const char* name;
    PrivOp op;
  } kOps[] = {
      {"Hypercall", PrivOp::kHypercallNop}, {"Exception", PrivOp::kException},
      {"MSR access", PrivOp::kMsrRead},     {"CPUID", PrivOp::kCpuid},
      {"PIO", PrivOp::kPortIo},
  };
  const struct {
    const char* name;
    DeployMode mode;
  } kConfigs[] = {
      {"kvm (BM)", DeployMode::kKvmEptBm},
      {"pvm (BM)", DeployMode::kPvmBm},
      {"kvm (NST)", DeployMode::kKvmEptNst},
      {"pvm (NST)", DeployMode::kPvmNst},
  };

  const bench::EntryHooks hooks = io.hooks();
  TextTable table({"Configuration", "kvm (BM)", "pvm (BM)", "kvm (NST)", "pvm (NST)"});
  for (const auto& op : kOps) {
    std::vector<std::string> row{op.name};
    for (const auto& config : kConfigs) {
      const std::string label = std::string(config.name) + "/" + op.name;
      const double on = measure_op_us(label, config.mode, true, op.op, hooks);
      const double off = measure_op_us(label, config.mode, false, op.op, hooks);
      row.push_back(TextTable::cell(on) + "/" + TextTable::cell(off));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Shape checks vs the paper:\n");
  std::printf(" - nested kvm hypercalls are ~an order of magnitude slower than BM;\n");
  std::printf(" - pvm (NST) cuts kvm (NST) exit latency by >75%% on CPU ops;\n");
  std::printf(" - pvm pays extra for MSR (full emulation path) as in the paper.\n");
  return 0;
}
