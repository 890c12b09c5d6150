// Secure-container lifecycle demo: boots a container, walks through the
// process-management surface (fork with COW, exec, signals, file I/O), and
// prints a stage-by-stage account of what each operation cost and which
// virtualization events it generated — on the deployment of your choice.
//
// Usage: secure_container_demo [kvm-ept-bm|kvm-spt-bm|pvm-bm|kvm-ept-nst|pvm-nst]

#include <cstdio>
#include <cstring>
#include <string>

#include "src/backends/platform.h"

using namespace pvm;

namespace {

DeployMode parse_mode(int argc, char** argv) {
  if (argc < 2) {
    return DeployMode::kPvmNst;
  }
  const std::string arg = argv[1];
  if (arg == "kvm-ept-bm") return DeployMode::kKvmEptBm;
  if (arg == "kvm-spt-bm") return DeployMode::kKvmSptBm;
  if (arg == "pvm-bm") return DeployMode::kPvmBm;
  if (arg == "kvm-ept-nst") return DeployMode::kKvmEptNst;
  if (arg == "pvm-nst") return DeployMode::kPvmNst;
  std::fprintf(stderr, "unknown mode '%s', using pvm-nst\n", arg.c_str());
  return DeployMode::kPvmNst;
}

struct StageReport {
  VirtualPlatform* platform;
  SimTime stage_start = 0;
  CounterSet snapshot{};

  void begin() {
    stage_start = platform->sim().now();
    snapshot = platform->counters();
  }
  void end(const char* stage) {
    const CounterSet delta = platform->counters().delta_since(snapshot);
    std::printf("%-28s %9.1f us | faults=%llu world-switches=%llu L0-exits=%llu\n", stage,
                static_cast<double>(platform->sim().now() - stage_start) / 1e3,
                static_cast<unsigned long long>(delta.get(Counter::kGuestPageFault)),
                static_cast<unsigned long long>(delta.get(Counter::kWorldSwitch)),
                static_cast<unsigned long long>(delta.get(Counter::kL0Exit)));
  }
};

}  // namespace

int main(int argc, char** argv) {
  PlatformConfig config;
  config.mode = parse_mode(argc, argv);
  VirtualPlatform platform(config);
  std::printf("deployment: %s\n\n", std::string(deploy_mode_name(config.mode)).c_str());

  SecureContainer& container = platform.create_container("demo");
  StageReport report{&platform};

  report.begin();
  platform.sim().spawn(container.boot(96));
  platform.sim().run();
  report.end("boot (RunD-style startup)");

  GuestKernel& kernel = container.kernel();
  Vcpu& vcpu = container.vcpu(0);
  GuestProcess* init = container.init_process();

  auto run_stage = [&](const char* name, Task<void> task) {
    report.begin();
    platform.sim().spawn(std::move(task));
    platform.sim().run();
    report.end(name);
  };

  run_stage("mmap + touch 128 pages", [](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
    const std::uint64_t base = co_await k.sys_mmap(v, p, 128 * kPageSize);
    for (int i = 0; i < 128; ++i) {
      co_await k.touch(v, p, base + static_cast<std::uint64_t>(i) * kPageSize, true);
    }
  }(kernel, vcpu, *init));

  run_stage("1000 getpid() syscalls", [](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
    for (int i = 0; i < 1000; ++i) {
      co_await k.sys_getpid(v, p);
    }
  }(kernel, vcpu, *init));

  run_stage("fork + child COW + exit",
            [](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
              GuestProcess* child = co_await k.sys_fork(v, p);
              co_await k.mem().activate_process(v, *child, false);
              // The child dirties a few inherited pages: COW breaks.
              for (int i = 0; i < 8; ++i) {
                co_await k.touch(v, *child,
                                 GuestProcess::kStackBase + static_cast<std::uint64_t>(i) * kPageSize,
                                 true);
              }
              co_await k.sys_exit(v, *child);
              co_await k.mem().activate_process(v, p, false);
            }(kernel, vcpu, *init));

  run_stage("fork + exec (shell-style)",
            [](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
              GuestProcess* child = co_await k.sys_fork(v, p);
              co_await k.mem().activate_process(v, *child, false);
              co_await k.sys_exec(v, *child, 48);
              co_await k.sys_exit(v, *child);
              co_await k.mem().activate_process(v, p, false);
            }(kernel, vcpu, *init));

  run_stage("signal delivery x100", [](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await k.deliver_signal(v, p);
    }
  }(kernel, vcpu, *init));

  run_stage("file create/write/delete x20",
            [](GuestKernel& k, Vcpu& v, GuestProcess& p, SecureContainer& c) -> Task<void> {
              for (int i = 0; i < 20; ++i) {
                co_await k.sys_file_op(v, p, 45 * kNsPerUs, 4, 0);
                co_await k.do_io(v, p, c.io(), 16 * 1024);
                co_await k.sys_file_op(v, p, 30 * kNsPerUs, 0, 4);
              }
            }(kernel, vcpu, *init, container));

  std::printf("\ntotals: virtual time %.3f ms, %llu world switches, %llu L0 exits\n",
              static_cast<double>(platform.sim().now()) / 1e6,
              static_cast<unsigned long long>(platform.counters().get(Counter::kWorldSwitch)),
              static_cast<unsigned long long>(platform.counters().get(Counter::kL0Exit)));
  return 0;
}
