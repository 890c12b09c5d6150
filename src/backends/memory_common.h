// Shared plumbing for the memory-virtualization backends.
//
// Every scheme runs one access pipeline, MemoryBackendBase::access: probe
// the TLB, walk, and on a failed walk run the scheme's fault protocol and
// retry. A scheme supplies three hooks (its TLB tag, its hardware walk and
// resolve_fault) and takes its GPT store channels from its paging family:
//
//   GuestPtBackend    the guest owns its table; stores are plain and never
//                     trap (kvm-ept BM, kvm-ept NST).
//   TrackedPtBackend  every store to an activated process's table needs the
//                     hypervisor's help (pvm-direct validates it).
//   ShadowPtBackend   a tracked table whose stores keep the shadow tables of
//                     a PvmMemoryEngine coherent (kvm-spt, spt-on-ept, pvm).

#ifndef PVM_SRC_BACKENDS_MEMORY_COMMON_H_
#define PVM_SRC_BACKENDS_MEMORY_COMMON_H_

#include <cstdint>
#include <string>
#include <unordered_set>

#include "src/arch/cost_model.h"
#include "src/core/memory_engine.h"
#include "src/guest/backend_iface.h"
#include "src/guest/guest_kernel.h"
#include "src/hv/dirty_tracker.h"
#include "src/metrics/counters.h"
#include "src/mmu/two_dim_walk.h"
#include "src/sim/simulation.h"

namespace pvm {

// One guest access, as the access loop hands it to a scheme's hooks.
struct GuestAccess {
  std::uint64_t gva;
  AccessType type;
  bool user_mode;

  // The #PF this access raises in the guest; `protection` as the scheme
  // classified it.
  PageFaultInfo fault(bool protection) const { return {gva, type, user_mode, protection}; }
};

class MemoryBackendBase : public MemoryBackend {
 public:
  void on_process_created(GuestProcess& proc) override { (void)proc; }
  Task<void> on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) override {
    (void)vcpu;
    (void)proc;
    co_return;
  }

  // The one access pipeline. The first failed walk opens the op.page_fault
  // span (unless the scheme opens its own) and records the guest fault; the
  // span closes once the access retires, so it covers the successful re-walk.
  Task<void> access(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel, std::uint64_t gva,
                    AccessType access, bool user_mode) final;

  // The VPID tagging this backend's TLB entries. Fault-injection harnesses
  // (src/check) need it to drive engine zaps from outside the backend.
  std::uint16_t vpid() const { return vpid_; }

  // Attaches the VM's migration dirty tracker (platform wiring). Disarmed
  // or detached, every access pays exactly one branch.
  void set_dirty_tracker(DirtyTracker* tracker) { dirty_ = tracker; }

 protected:
  // `max_attempts` bounds the walk retries before the loop declares a
  // fault-handling bug. A scheme whose fault protocol opens its own op span
  // passes `opens_fault_span` false.
  MemoryBackendBase(Simulation& sim, const CostModel& costs, CounterSet& counters,
                    std::string label, std::uint16_t vpid, int max_attempts,
                    bool opens_fault_span = true)
      : sim_(&sim),
        costs_(&costs),
        counters_(&counters),
        vpid_(vpid),
        label_(std::move(label)),
        max_attempts_(max_attempts),
        opens_fault_span_(opens_fault_span) {}

  // The tag the access's TLB entries carry, read once per access before the
  // first probe.
  virtual std::uint16_t access_pcid(GuestProcess& proc, bool user_mode) = 0;
  // The hardware page walk of one attempt.
  virtual TwoDimWalk hardware_walk(GuestProcess& proc, const GuestAccess& access) = 0;
  // The scheme's protocol for one failed walk (Fig. 3/9). Returns false when
  // the faulting process was OOM-killed and the access is abandoned.
  virtual Task<bool> resolve_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                                   const GuestAccess& access, const TwoDimWalk& walk) = 0;

  // TLB tags for EPT-style schemes where the guest drives PCIDs itself.
  static std::uint16_t guest_pcid(const GuestProcess& proc, bool user_mode, bool kpti) {
    if (!kpti) {
      return proc.user_pcid();
    }
    return user_mode ? proc.user_pcid() : proc.kernel_pcid();
  }

  // Drops every possible TLB alias of a guest page (user + kernel tags).
  void tlb_drop_page(Vcpu& vcpu, const GuestProcess& proc, std::uint64_t gva) {
    vcpu.tlb.flush_page(vpid_, proc.user_pcid(), page_number(gva));
    vcpu.tlb.flush_page(vpid_, proc.kernel_pcid(), page_number(gva));
    vcpu.tlb.flush_page(vpid_, 0, page_number(gva));
  }

  // What a dirty-tracking write-protect fault (or PML flush exit) costs on
  // this backend: one exit round trip through its own exit machinery. The
  // VMX default fits the EPT-family and kvm-spt backends; PVM backends
  // override with the (cheaper) switcher round trip — the same asymmetry
  // the paper's Table 1 measures for every other exit.
  virtual std::uint64_t dirty_exit_roundtrip_ns() const {
    return costs_->vmx_roundtrip() + costs_->l0_exit_dispatch;
  }

  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
  std::uint16_t vpid_;

 private:
  // Probes the TLB; true on a permitted hit. A hit with insufficient
  // permission drops the entry (the hardware re-walks on permission faults).
  bool tlb_try(Vcpu& vcpu, std::uint16_t pcid, const GuestAccess& access);

  // Runs at every *successful* guest store while the migration dirty
  // tracker is armed (access() tests that first): records the page against
  // the tracker and charges whatever the active protocol makes the store
  // cost.
  Task<void> dirty_note(const Vcpu& vcpu, const GuestProcess& proc, const GuestAccess& access);

  std::string label_;
  int max_attempts_;
  bool opens_fault_span_;
  DirtyTracker* dirty_ = nullptr;
};

// Guest-owned page tables (EPT schemes): GPT stores are ordinary guest
// memory writes, CR3 writes stay in non-root mode, and guest page faults
// are delivered and handled inside the guest.
class GuestPtBackend : public MemoryBackendBase {
 public:
  Task<void> gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, std::uint64_t gpa_frame,
                     PteFlags flags) override;
  Task<void> gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) override;
  Task<void> gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool writable,
                         bool mark_cow) override;
  Task<void> activate_process(Vcpu& vcpu, GuestProcess& proc, bool kernel_ring) override;

 protected:
  GuestPtBackend(Simulation& sim, const CostModel& costs, CounterSet& counters,
                 std::string label, std::uint16_t vpid, bool kpti, int max_attempts,
                 bool opens_fault_span)
      : MemoryBackendBase(sim, costs, counters, std::move(label), vpid, max_attempts,
                          opens_fault_span),
        kpti_(kpti) {}

  std::uint16_t access_pcid(GuestProcess& proc, bool user_mode) override {
    return guest_pcid(proc, user_mode, kpti_);
  }

  // A guest page fault: in-guest #PF delivery, the guest kernel's handler,
  // iret. No exit — the EPT-scheme fast path the paper's fork/exec rows
  // highlight.
  Task<void> guest_local_fault(Vcpu& vcpu, GuestProcess& proc, GuestKernel& kernel,
                               const GuestAccess& access, const TwoDimWalk& walk);

 private:
  bool kpti_;
};

// Hypervisor-tracked page tables. From its first activation a process's
// table is tracked: the GPT store lands, its TLB aliases drop, and the
// scheme's sync_store runs for it. An untracked table (a fork child's,
// built before it first runs) pays plain stores.
class TrackedPtBackend : public MemoryBackendBase {
 public:
  Task<void> gpt_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, std::uint64_t gpa_frame,
                     PteFlags flags) override;
  Task<void> gpt_unmap(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva) override;
  Task<void> gpt_protect(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, bool writable,
                         bool mark_cow) override;

 protected:
  using MemoryBackendBase::MemoryBackendBase;

  bool tracked(std::uint64_t pid) const { return tracked_.count(pid) > 0; }
  void track(const GuestProcess& proc) { tracked_.insert(proc.pid()); }
  void untrack(const GuestProcess& proc) { tracked_.erase(proc.pid()); }

  // The hypervisor's part of one store to a tracked table.
  virtual Task<void> sync_store(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva,
                                GptStoreKind kind) = 0;
  // The `entries` stores of one map: new table levels, then the leaf. One
  // sync_store each unless the scheme batches them.
  virtual Task<void> sync_map(Vcpu& vcpu, GuestProcess& proc, std::uint64_t gva, int entries);

 private:
  std::unordered_set<std::uint64_t> tracked_;
};

// Tracked tables shadowed by a PvmMemoryEngine, which follows the process
// lifecycle. The container owns the engine.
class ShadowPtBackend : public TrackedPtBackend {
 public:
  void on_process_created(GuestProcess& proc) override {
    engine_->create_process(proc.pid(), &proc.gpt());
  }
  Task<void> on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) override {
    engine_->destroy_process(proc.pid(), vcpu.tlb, vpid_);
    untrack(proc);
    co_return;
  }

  PvmMemoryEngine& engine() { return *engine_; }

 protected:
  ShadowPtBackend(Simulation& sim, const CostModel& costs, CounterSet& counters,
                  std::string label, std::uint16_t vpid, PvmMemoryEngine& engine,
                  int max_attempts)
      : TrackedPtBackend(sim, costs, counters, std::move(label), vpid, max_attempts),
        engine_(&engine) {}

  // The shadow table the hardware walks for an access in this ring.
  PageTable& active_spt(const GuestProcess& proc, bool user_mode) {
    return engine_->spt(proc.pid(), /*kernel_ring=*/!user_mode);
  }

  PvmMemoryEngine* engine_;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_MEMORY_COMMON_H_
