// Table 3: LMbench process-management latencies (us), 1 and 32 concurrent
// processes, across the five deployment scenarios.
//
// Paper shape: pvm tracks kvm-ept closely except fork/exec/sh (shadow
// teardown); kvm-spt collapses at 32 processes on fork-family ops; pvm (NST)
// beats kvm-ept (NST) everywhere except the fork family.

#include "bench/bench_common.h"
#include "src/workloads/lmbench.h"
#include "src/workloads/runner.h"

namespace pvm {
namespace {

// Mean per-op latency with `processes` concurrent benchmark processes.
double latency_us(const std::string& label, const PlatformConfig& config, LmbenchOp op,
                  int processes, int iterations, const bench::EntryHooks& hooks) {
  VirtualPlatform platform(config);
  hooks.on_platform(platform);
  SecureContainer& container = platform.create_container("c0");
  platform.sim().spawn(container.boot(16));
  platform.sim().run();

  std::vector<std::uint64_t> latencies(processes, 0);
  const ConcurrentResult result = run_processes_in_container(
      platform, container, processes,
      [&](int index, Vcpu& vcpu, GuestProcess& proc) -> Task<void> {
        return [](SecureContainer& c, Vcpu& v, GuestProcess& p, LmbenchOp o, int iters,
                  std::uint64_t* out) -> Task<void> {
          LmbenchParams params;
          *out = co_await lmbench_run(c, v, p, o, iters, params);
        }(container, vcpu, proc, op, iterations, &latencies[index]);
      },
      /*resident_pages=*/256);
  (void)result;
  double sum = 0;
  for (const std::uint64_t latency : latencies) {
    sum += static_cast<double>(latency);
  }
  const double us = sum / static_cast<double>(processes) / 1e3;
  hooks.record(label, platform.sim(), platform.counters(), {{"latency_us", us}});
  return us;
}

}  // namespace
}  // namespace pvm

int main(int argc, char** argv) {
  using namespace pvm;
  BenchIo io(argc, argv, "table3_lmbench_proc");
  print_header("Table 3: LMbench process latencies (us; smaller is better)",
               "PVM paper, Table 3", "#C = concurrent benchmark processes");

  const struct {
    const char* name;
    LmbenchOp op;
    int iters1;   // iterations at 1 process
    int iters32;  // iterations at 32 processes
  } kOps[] = {
      {"null I/O", LmbenchOp::kNullIo, 400, 50},
      {"stat", LmbenchOp::kStat, 400, 50},
      {"open/close", LmbenchOp::kOpenClose, 200, 30},
      {"slct TCP", LmbenchOp::kSelectTcp, 200, 30},
      {"sig inst", LmbenchOp::kSigInstall, 400, 50},
      {"sig hndl", LmbenchOp::kSigHandle, 200, 30},
      {"fork proc", LmbenchOp::kForkProc, 16, 6},
      {"exec proc", LmbenchOp::kExecProc, 12, 4},
      {"sh proc", LmbenchOp::kShProc, 8, 3},
      {"ctx switch", LmbenchOp::kCtxSwitch, 200, 30},
  };

  const bench::EntryHooks hooks = io.hooks();
  for (int processes : {1, 32}) {
    std::printf("--- #C = %d ---\n", processes);
    std::vector<std::string> header{"config"};
    for (const auto& op : kOps) {
      header.push_back(op.name);
    }
    TextTable table(std::move(header));
    for (const Scenario& scenario : five_scenarios()) {
      std::vector<std::string> row{scenario.label};
      for (const auto& op : kOps) {
        const int iters = processes == 1 ? op.iters1 : op.iters32;
        const std::string label = scenario.label + "/" + op.name + "/" +
                                  std::to_string(processes) + "p";
        row.push_back(TextTable::cell(
            latency_us(label, scenario.config, op.op, processes, iters, hooks)));
      }
      table.add_row(std::move(row));
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("Paper shape: pvm ~ kvm-ept except fork/exec/sh; kvm-spt worst on the\n");
  std::printf("fork family at 32 processes; pvm (NST) < kvm-ept (NST) elsewhere.\n");
  return 0;
}
