// Per-vCPU architectural state.
//
// This is the state a world switch saves and restores: mode (VMX root vs
// non-root), hardware ring, the virtual ring PVM simulates for de-privileged
// L2 guests, CR3/PCID, RFLAGS.IF, IDTR, and the handful of MSRs the
// benchmarks exercise.

#ifndef PVM_SRC_ARCH_CPU_STATE_H_
#define PVM_SRC_ARCH_CPU_STATE_H_

#include <cstdint>
#include <vector>

namespace pvm {

enum class CpuMode {
  kRoot,     // VMX root operation (the L0 hypervisor)
  kNonRoot,  // VMX non-root operation (everything inside a VM)
};

// Hardware privilege rings. Only 0 and 3 are modelled: PVM targets x86-64 and
// the upcoming x86-s, where rings 1 and 2 are unused/removed (paper §1, §3.2).
enum class HwRing : std::uint8_t {
  kRing0 = 0,
  kRing3 = 3,
};

// The privilege level PVM simulates for a de-privileged L2 guest, both of
// whose rings really run at HwRing::kRing3 (paper §3.1: v_ring0 / v_ring3).
enum class VirtRing : std::uint8_t {
  kVRing0 = 0,
  kVRing3 = 3,
};

// MSR identifiers used by the benchmarks and the switcher.
enum class MsrIndex : std::uint32_t {
  kLstar = 0xC0000082,               // syscall entry point
  kGsBase = 0xC0000101,              // per-CPU base
  kKernelGsBase = 0xC0000102,        // swapgs shadow
  kCorePerfGlobalCtrl = 0x38F,       // the MSR Table 1 exercises
  kTscDeadline = 0x6E0,
  kApicBase = 0x1B,
};

struct VcpuState {
  CpuMode mode = CpuMode::kNonRoot;
  HwRing hw_ring = HwRing::kRing3;
  VirtRing virt_ring = VirtRing::kVRing3;

  std::uint64_t cr3 = 0;       // root frame of the active page table
  std::uint16_t pcid = 0;      // active PCID (low CR3 bits on hardware)
  std::uint16_t vpid = 0;      // VM identifier assigned by the hypervisor
  bool rflags_if = true;       // interrupt enable
  std::uint64_t idtr_base = 0;
  std::uint64_t rip = 0;

  // Written MSRs, in first-write order; unwritten MSRs read as 0. A guest
  // writes only a handful, and every world switch copies two VcpuStates, so
  // they are a short vector: a copy allocates no hash-table nodes.
  struct Msr {
    MsrIndex index;
    std::uint64_t value;
  };
  std::vector<Msr> msrs;

  std::uint64_t read_msr(MsrIndex index) const {
    for (const Msr& msr : msrs) {
      if (msr.index == index) {
        return msr.value;
      }
    }
    return 0;
  }
  void write_msr(MsrIndex index, std::uint64_t value) {
    for (Msr& msr : msrs) {
      if (msr.index == index) {
        msr.value = value;
        return;
      }
    }
    msrs.push_back(Msr{index, value});
  }
};

}  // namespace pvm

#endif  // PVM_SRC_ARCH_CPU_STATE_H_
