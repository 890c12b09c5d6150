#include "src/workloads/lmbench.h"

#include "src/guest/guest_kernel.h"

namespace pvm {

std::string_view lmbench_op_name(LmbenchOp op) {
  switch (op) {
    case LmbenchOp::kNullIo:
      return "null I/O";
    case LmbenchOp::kStat:
      return "stat";
    case LmbenchOp::kOpenClose:
      return "open/close";
    case LmbenchOp::kSelectTcp:
      return "slct TCP";
    case LmbenchOp::kSigInstall:
      return "sig inst";
    case LmbenchOp::kSigHandle:
      return "sig hndl";
    case LmbenchOp::kForkProc:
      return "fork proc";
    case LmbenchOp::kExecProc:
      return "exec proc";
    case LmbenchOp::kShProc:
      return "sh proc";
    case LmbenchOp::kFileCreate0K:
      return "0K file";
    case LmbenchOp::kFileCreate10K:
      return "10K file";
    case LmbenchOp::kMmap:
      return "mmap";
    case LmbenchOp::kProtFault:
      return "prot fault";
    case LmbenchOp::kPageFault:
      return "page fault";
    case LmbenchOp::kSelect100Fd:
      return "100fd select";
    case LmbenchOp::kGetPid:
      return "get_pid";
    case LmbenchOp::kTcpLatency:
      return "TCP lat";
    case LmbenchOp::kUdpLatency:
      return "UDP lat";
    case LmbenchOp::kTcpBandwidth:
      return "TCP bw";
    case LmbenchOp::kCtxSwitch:
      return "ctx switch";
  }
  return "?";
}

namespace {

// Guest-kernel body costs (ns) chosen so kvm-ept (BM) — where virtualization
// overhead is near zero — lands near the paper's column; every other column
// then differs only by its protocol costs.
struct OpBodies {
  static constexpr std::uint64_t kNullIo = 120;
  static constexpr std::uint64_t kStat = 420;
  static constexpr std::uint64_t kOpenClose = 24500;
  static constexpr std::uint64_t kSelectTcp = 1750;
  static constexpr std::uint64_t kSigInstall = 60;
  static constexpr std::uint64_t kSelect100Fd = 1650;
  static constexpr std::uint64_t kFileCreate0K = 78000;
  static constexpr std::uint64_t kFileDelete0K = 50000;
  static constexpr std::uint64_t kFileCreate10K = 118000;
  static constexpr std::uint64_t kFileDelete10K = 52000;
};

Task<void> one_iteration(SecureContainer& container, Vcpu& vcpu, GuestProcess& proc,
                         LmbenchOp op, const LmbenchParams& params, std::uint64_t iteration) {
  GuestKernel& kernel = container.kernel();
  switch (op) {
    case LmbenchOp::kGetPid:
      co_await kernel.sys_getpid(vcpu, proc);
      break;
    case LmbenchOp::kNullIo:
      co_await kernel.sys_simple(vcpu, proc, OpBodies::kNullIo, 0);
      break;
    case LmbenchOp::kStat:
      co_await kernel.sys_simple(vcpu, proc, OpBodies::kStat, 1);
      break;
    case LmbenchOp::kOpenClose:
      co_await kernel.sys_simple(vcpu, proc, OpBodies::kOpenClose, 2);
      break;
    case LmbenchOp::kSelectTcp:
      co_await kernel.sys_simple(vcpu, proc, OpBodies::kSelectTcp, 0);
      break;
    case LmbenchOp::kSigInstall:
      co_await kernel.sys_simple(vcpu, proc, OpBodies::kSigInstall, 0);
      break;
    case LmbenchOp::kSigHandle:
      co_await kernel.deliver_signal(vcpu, proc);
      break;
    case LmbenchOp::kSelect100Fd:
      co_await kernel.sys_simple(vcpu, proc, OpBodies::kSelect100Fd, 0);
      break;
    case LmbenchOp::kForkProc: {
      GuestProcess* child = co_await kernel.sys_fork(vcpu, proc);
      co_await kernel.mem().activate_process(vcpu, *child, false);
      for (int i = 0; i < params.fork_child_touches; ++i) {
        co_await kernel.touch(vcpu, *child,
                              GuestProcess::kStackBase + static_cast<std::uint64_t>(i) * kPageSize,
                              true);
      }
      co_await kernel.sys_exit(vcpu, *child);
      co_await kernel.mem().activate_process(vcpu, proc, false);
      break;
    }
    case LmbenchOp::kExecProc: {
      GuestProcess* child = co_await kernel.sys_fork(vcpu, proc);
      co_await kernel.mem().activate_process(vcpu, *child, false);
      co_await kernel.sys_exec(vcpu, *child, params.exec_fresh_pages);
      co_await kernel.sys_exit(vcpu, *child);
      co_await kernel.mem().activate_process(vcpu, proc, false);
      break;
    }
    case LmbenchOp::kShProc: {
      GuestProcess* child = co_await kernel.sys_fork(vcpu, proc);
      co_await kernel.mem().activate_process(vcpu, *child, false);
      co_await kernel.sys_exec(vcpu, *child, params.exec_fresh_pages);
      // /bin/sh startup: rc parsing, environment copies, a second exec for
      // the actual command.
      co_await container.sim().delay(750 * kNsPerUs);
      const std::uint64_t sh_heap = co_await kernel.sys_mmap(vcpu, *child, 48 * kPageSize);
      for (int i = 0; i < 48; ++i) {
        co_await kernel.touch(vcpu, *child, sh_heap + static_cast<std::uint64_t>(i) * kPageSize,
                              true);
      }
      co_await kernel.sys_exec(vcpu, *child, params.exec_fresh_pages);
      co_await kernel.sys_exit(vcpu, *child);
      co_await kernel.mem().activate_process(vcpu, proc, false);
      break;
    }
    case LmbenchOp::kFileCreate0K:
      co_await kernel.sys_file_op(vcpu, proc, OpBodies::kFileCreate0K, 6, 0);
      co_await kernel.sys_file_op(vcpu, proc, OpBodies::kFileDelete0K, 0, 6);
      break;
    case LmbenchOp::kFileCreate10K:
      co_await kernel.sys_file_op(vcpu, proc, OpBodies::kFileCreate10K, 9, 0);
      co_await kernel.sys_file_op(vcpu, proc, OpBodies::kFileDelete10K, 0, 9);
      break;
    case LmbenchOp::kMmap: {
      const std::uint64_t bytes = static_cast<std::uint64_t>(params.mmap_pages) * kPageSize;
      const std::uint64_t base = co_await kernel.sys_mmap(vcpu, proc, bytes);
      for (int i = 0; i < params.mmap_pages; ++i) {
        co_await kernel.touch(vcpu, proc, base + static_cast<std::uint64_t>(i) * kPageSize,
                              true);
      }
      co_await kernel.sys_munmap(vcpu, proc, base);
      break;
    }
    case LmbenchOp::kProtFault: {
      // Write-protect a resident page, then write it: one protection fault.
      const std::uint64_t gva = GuestProcess::kCodeBase;
      co_await kernel.mem().gpt_protect(vcpu, proc, gva, /*writable=*/false,
                                        /*mark_cow=*/false);
      co_await kernel.touch(vcpu, proc, gva, true);
      break;
    }
    case LmbenchOp::kTcpLatency: {
      // One request/response: send syscall + doorbell, short wire time,
      // completion interrupt, recv syscall.
      GuestKernel& k = kernel;
      co_await k.sys_simple(vcpu, proc, 2500, 1);            // send + stack work
      co_await k.cpu().privileged_op(vcpu, PrivOp::kIoKick);  // vhost kick
      co_await container.sim().delay(18 * kNsPerUs);          // wire + peer
      co_await k.cpu().interrupt(vcpu);                       // rx interrupt
      co_await k.sys_simple(vcpu, proc, 2100, 1);             // recv
      break;
    }
    case LmbenchOp::kUdpLatency: {
      GuestKernel& k = kernel;
      co_await k.sys_simple(vcpu, proc, 1800, 1);
      co_await k.cpu().privileged_op(vcpu, PrivOp::kIoKick);
      co_await container.sim().delay(15 * kNsPerUs);
      co_await k.cpu().interrupt(vcpu);
      co_await k.sys_simple(vcpu, proc, 1500, 1);
      break;
    }
    case LmbenchOp::kTcpBandwidth: {
      // One 64 KiB chunk: batched descriptors amortize the kick; the data
      // pages are touched (copy to the ring).
      GuestKernel& k = kernel;
      const std::uint64_t buf = co_await k.sys_mmap(vcpu, proc, 16 * kPageSize);
      for (int i = 0; i < 16; ++i) {
        co_await k.touch(vcpu, proc, buf + static_cast<std::uint64_t>(i) * kPageSize, true);
      }
      co_await k.cpu().privileged_op(vcpu, PrivOp::kIoKick);
      co_await container.sim().delay(30 * kNsPerUs);
      co_await k.cpu().interrupt(vcpu);
      co_await k.sys_munmap(vcpu, proc, buf);
      break;
    }
    case LmbenchOp::kCtxSwitch: {
      // lat_ctx with two processes: switch away and back, touching a small
      // hot set in each — the benchmark where trapped CR3 writes and lost
      // TLB state (no PCID) hurt most.
      GuestProcess* partner = nullptr;
      for (const auto& candidate : kernel.processes()) {
        if (candidate->pid() != proc.pid()) {
          partner = candidate.get();
        }
      }
      if (partner == nullptr) {
        partner = co_await kernel.sys_fork(vcpu, proc);
      }
      co_await kernel.mem().activate_process(vcpu, *partner, false);
      for (int i = 0; i < 4; ++i) {
        co_await kernel.touch(vcpu, *partner,
                              GuestProcess::kStackBase + static_cast<std::uint64_t>(i) * kPageSize,
                              false);
      }
      co_await kernel.mem().activate_process(vcpu, proc, false);
      for (int i = 0; i < 4; ++i) {
        co_await kernel.touch(vcpu, proc,
                              GuestProcess::kStackBase + static_cast<std::uint64_t>(i) * kPageSize,
                              false);
      }
      break;
    }
    case LmbenchOp::kPageFault: {
      // Fault in previously-untouched pages, remapping a fresh region when
      // the current one is exhausted.
      static constexpr int kRegionPages = 512;
      const int slot = static_cast<int>(iteration % kRegionPages);
      if (slot == 0) {
        co_await kernel.sys_mmap(vcpu, proc, kRegionPages * kPageSize);
      }
      // The newest mmap VMA is the highest-addressed one below the stack.
      auto it = proc.vmas().upper_bound(GuestProcess::kStackBase - 1);
      const std::uint64_t region = std::prev(it)->second.start;
      co_await kernel.touch(vcpu, proc, region + static_cast<std::uint64_t>(slot) * kPageSize,
                            true);
      break;
    }
  }
}

}  // namespace

Task<std::uint64_t> lmbench_run(SecureContainer& container, Vcpu& vcpu, GuestProcess& proc,
                                LmbenchOp op, int iterations, const LmbenchParams& params,
                                MergeableHistogram* histogram) {
  Simulation& sim = container.sim();
  // One warm-up iteration outside the timed window (as lmbench does).
  co_await one_iteration(container, vcpu, proc, op, params, 0);
  const SimTime start = sim.now();
  for (int i = 0; i < iterations; ++i) {
    const SimTime iteration_start = sim.now();
    co_await one_iteration(container, vcpu, proc, op, params, static_cast<std::uint64_t>(i + 1));
    if (histogram != nullptr) {
      histogram->record(sim.now() - iteration_start);
    }
  }
  co_return (sim.now() - start) / static_cast<std::uint64_t>(iterations);
}

}  // namespace pvm
