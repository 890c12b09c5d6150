// LMbench-style microbenchmark operations (paper §4.2, Tables 3 & 4, Fig. 2).
//
// Each operation reproduces the *operation mix* of the corresponding LMbench
// test — syscall entry/exits, page faults, fork/exec address-space work, I/O
// — on the simulated guest. Kernel body costs are fixed constants common to
// every deployment; all cross-deployment differences come from the
// virtualization protocols.

#ifndef PVM_SRC_WORKLOADS_LMBENCH_H_
#define PVM_SRC_WORKLOADS_LMBENCH_H_

#include <cstdint>
#include <string_view>

#include "src/backends/platform.h"
#include "src/metrics/histogram.h"
#include "src/sim/task.h"

namespace pvm {

enum class LmbenchOp {
  kNullIo,       // "null I/O": read/write on /dev/null
  kStat,         // stat()
  kOpenClose,    // open()+close()
  kSelectTcp,    // select() on 10 TCP fds
  kSigInstall,   // sigaction()
  kSigHandle,    // signal delivery + sigreturn
  kForkProc,     // fork + child exit + wait
  kExecProc,     // fork + execve + exit
  kShProc,       // fork + exec sh -c
  kFileCreate0K,   // create+delete empty file
  kFileCreate10K,  // create+delete 10 KiB file
  kMmap,           // mmap+touch+munmap of a region
  kProtFault,      // write to a write-protected page
  kPageFault,      // touch pages of a fresh mapping
  kSelect100Fd,    // select() on 100 fds
  kGetPid,         // Table 2's syscall
  kTcpLatency,     // TCP request/response over vhost-net
  kUdpLatency,     // UDP request/response
  kTcpBandwidth,   // bulk TCP transfer (per 64 KiB chunk)
  kCtxSwitch,      // lat_ctx-style process context switch (2 procs, hot set)
};

std::string_view lmbench_op_name(LmbenchOp op);

struct LmbenchParams {
  // Pages a benchmark process has resident before measurement starts — this
  // is the footprint fork()'s COW pass walks.
  int resident_pages = 192;
  int fork_child_touches = 4;  // pages a fork child dirties before exiting
  int exec_fresh_pages = 48;   // image pages exec touches
  int mmap_pages = 64;
};

// Runs `iterations` of `op` in one process of `container` on `vcpu` and
// returns the average latency in nanoseconds. When `histogram` is non-null,
// each iteration's latency is recorded (for tail-latency reporting).
Task<std::uint64_t> lmbench_run(SecureContainer& container, Vcpu& vcpu, GuestProcess& proc,
                                LmbenchOp op, int iterations, const LmbenchParams& params,
                                MergeableHistogram* histogram = nullptr);

}  // namespace pvm

#endif  // PVM_SRC_WORKLOADS_LMBENCH_H_
