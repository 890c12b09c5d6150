// The L0 host hypervisor (an unmodified KVM in the paper's terms).
//
// Owns host physical memory, one EPT (EPT01) per hosted VM, and the VMX
// transition protocol. For hardware-assisted nested virtualization it also
// implements what KVM's nVMX does: forwarding L2 exits to the L1 hypervisor,
// emulating L1's VM entries, shadowing VMCS12, write-protecting EPT12, and
// maintaining the compressed EPT02.
//
// PVM's whole point is to need *nothing* from this class beyond create_vm(),
// the warm EPT01, and interrupt injection — the tests assert exactly that by
// counting kL0Exit.

#ifndef PVM_SRC_HV_HOST_HYPERVISOR_H_
#define PVM_SRC_HV_HOST_HYPERVISOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/cost_model.h"
#include "src/arch/page_table.h"
#include "src/arch/physical_memory.h"
#include "src/hv/dirty_tracker.h"
#include "src/hv/vmcs.h"
#include "src/metrics/counters.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace pvm {

// Why a guest exited; selects the L0 handler cost.
enum class ExitKind {
  kHypercall,
  kException,
  kMsrAccess,
  kCpuid,
  kPortIo,
  kIoKick,
  kInterrupt,
  kCr3Write,
  kEptViolation,
  kHalt,
};

class HostHypervisor {
 public:
  // A VM hosted directly by L0: a container VM in bare-metal deployments, or
  // the single L1 "general-purpose instance" in nested deployments.
  class Vm {
   public:
    Vm(Simulation& sim, std::string name, std::uint16_t vpid, std::uint64_t gpa_frame_count)
        : name_(std::move(name)),
          vpid_(vpid),
          gpa_frames_(name_ + ".gpa", gpa_frame_count),
          ept_(name_ + ".ept01", nullptr),
          mmu_lock_(sim, name_ + ".l0_mmu_lock") {}

    const std::string& name() const { return name_; }
    std::uint16_t vpid() const { return vpid_; }
    // The VM's guest-physical space; its guest kernel allocates from here.
    FrameAllocator& gpa_frames() { return gpa_frames_; }
    // EPT01: VM guest-physical -> host-physical, maintained by L0.
    PageTable& ept() { return ept_; }
    const PageTable& ept() const { return ept_; }
    // KVM's per-VM mmu_lock at L0: serializes all L0-side page-table work
    // for this VM (including, crucially, EPT02 shadow updates for every L2
    // guest nested inside it).
    Resource& mmu_lock() { return mmu_lock_; }

    // A "warm" VM's EPT01 is considered fully established (§4: long-running
    // L1 instances). Missing leaves are then filled silently and free of
    // charge instead of through the violation protocol.
    bool warm() const { return warm_; }
    void set_warm(bool warm) { warm_ = warm; }

    // Set once the VM uses nested VMX (it hosts hardware-assisted L2
    // guests): from then on L0 cannot migrate/save/load it (§2.3). PVM
    // never sets this — its L1 stays an ordinary, migratable VM.
    bool nested_vmx_active() const { return nested_vmx_active_; }
    void set_nested_vmx_active(bool active) { nested_vmx_active_ = active; }

    // Migration dirty tracking. Owned by value so backend pointers into it
    // stay valid for the VM's lifetime; disarmed (free) outside migrations.
    DirtyTracker& dirty_tracker() { return dirty_tracker_; }

   private:
    std::string name_;
    std::uint16_t vpid_;
    FrameAllocator gpa_frames_;
    PageTable ept_;
    Resource mmu_lock_;
    bool warm_ = false;
    bool nested_vmx_active_ = false;
    DirtyTracker dirty_tracker_;
  };

  HostHypervisor(Simulation& sim, const CostModel& costs, CounterSet& counters,
                 std::uint64_t host_frame_count);

  // Creates a VM with `gpa_frame_count` frames of guest-physical memory.
  // When `prewarm_ept` is set, EPT01 is fully populated up front (the paper's
  // warm-L1 assumption for nested runs).
  Vm& create_vm(const std::string& name, std::uint64_t gpa_frame_count, bool prewarm_ept);

  FrameAllocator& host_frames() { return host_frames_; }
  Simulation& sim() { return *sim_; }
  const CostModel& costs() const { return *costs_; }
  CounterSet& counters() { return *counters_; }

  // ---- Single-level protocol steps ----

  // Hardware VM exit into L0, handler for `kind`, VM entry back. The round
  // trip Table 1 measures for kvm (BM).
  Task<void> exit_roundtrip(Vm& vm, ExitKind kind);

  // Split exit/entry, for handlers whose body runs caller-side code (e.g.
  // shadow-table fills under engine locks).
  Task<void> begin_exit(Vm& vm);
  Task<void> finish_entry();

  // EPT violation service: exit, allocate a host frame and install the
  // EPT01 leaf under the VM's mmu_lock, entry.
  Task<void> handle_ept_violation(Vm& vm, std::uint64_t gpa);

  // Installs one EPT01 leaf (no transition costs; caller is already in L0
  // context). Takes the VM's mmu_lock.
  Task<void> fill_ept(Vm& vm, std::uint64_t gpa);

  // Makes sure `gpa` is backed in EPT01. Warm VMs fill silently (zero
  // virtual time, no exit); cold VMs run the full violation protocol.
  Task<void> ensure_backed(Vm& vm, std::uint64_t gpa);

  // Injects an external interrupt into a running VM: one exit round trip
  // plus APIC virtualization work.
  Task<void> inject_interrupt(Vm& vm);

  // ---- Nested (VMX emulation) protocol steps, used by kvm-on-kvm ----

  // Per-L2-vCPU VMCS triple maintained across L0 (vmcs01, vmcs02) and L1
  // (vmcs12, shadowed).
  struct NestedVcpu {
    Vmcs vmcs01;
    Vmcs vmcs12;
    Vmcs vmcs02;
    bool vmcs_shadowing = true;
  };

  // L2 exits; L0 decodes, reflects the exit into VMCS12 and enters L1 so the
  // L1 hypervisor can handle it. One L0 exit, two world switches.
  Task<void> nested_forward_exit_to_l1(Vm& l1_vm, NestedVcpu& vcpu, ExitKind kind);

  // L1 executes VMRESUME (privileged): trap to L0, merge VMCS01+12 -> 02,
  // real entry into L2. One L0 exit, two world switches.
  Task<void> nested_resume_l2(Vm& l1_vm, NestedVcpu& vcpu);

  // L1 performs `count` VMREAD/VMWRITEs on VMCS12. Free under VMCS
  // shadowing; otherwise each is a full exit to L0.
  Task<void> l1_vmcs12_access(Vm& l1_vm, NestedVcpu& vcpu, int count);

  // L1 stores into a write-protected nested page table (EPT12): L0 traps and
  // emulates the store. One L0 exit round trip plus emulation work.
  Task<void> emulate_protected_store(Vm& l1_vm);

  std::size_t vm_count() const { return vms_.size(); }

 private:
  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
  FrameAllocator host_frames_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::uint16_t next_vpid_ = 1;

  std::uint64_t handler_cost(ExitKind kind) const;
  // Extra host-side latency an attached fault injector adds to this exit
  // (preempted L0, SMI, ...). 0 when no injector is armed.
  std::uint64_t injected_exit_spike(const Vm& vm);
};

}  // namespace pvm

#endif  // PVM_SRC_HV_HOST_HYPERVISOR_H_
