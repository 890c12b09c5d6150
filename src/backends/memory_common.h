// Shared plumbing for the memory-virtualization backends.

#ifndef PVM_SRC_BACKENDS_MEMORY_COMMON_H_
#define PVM_SRC_BACKENDS_MEMORY_COMMON_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/arch/cost_model.h"
#include "src/guest/backend_iface.h"
#include "src/guest/guest_kernel.h"
#include "src/hv/dirty_tracker.h"
#include "src/metrics/counters.h"
#include "src/mmu/two_dim_walk.h"
#include "src/obs/span.h"
#include "src/sim/simulation.h"

namespace pvm {

class MemoryBackendBase : public MemoryBackend {
 public:
  void on_process_created(GuestProcess& proc) override { (void)proc; }
  Task<void> on_process_destroyed(Vcpu& vcpu, GuestProcess& proc) override {
    (void)vcpu;
    (void)proc;
    co_return;
  }

  // The VPID tagging this backend's TLB entries. Fault-injection harnesses
  // (src/check) need it to drive engine zaps from outside the backend.
  std::uint16_t vpid() const { return vpid_; }

  // Attaches the VM's migration dirty tracker (platform wiring). Disarmed
  // or detached, every access pays exactly one branch.
  void set_dirty_tracker(DirtyTracker* tracker) { dirty_ = tracker; }

 protected:
  MemoryBackendBase(Simulation& sim, const CostModel& costs, CounterSet& counters,
                    std::string label, std::uint16_t vpid)
      : sim_(&sim),
        costs_(&costs),
        counters_(&counters),
        label_(std::move(label)),
        vpid_(vpid) {}

  // TLB tags for EPT-style schemes where the guest drives PCIDs itself.
  static std::uint16_t guest_pcid(const GuestProcess& proc, bool user_mode, bool kpti) {
    if (!kpti) {
      return proc.user_pcid();
    }
    return user_mode ? proc.user_pcid() : proc.kernel_pcid();
  }

  // Probes the TLB; on a permitted hit charges the hit cost and returns
  // true. A hit with insufficient permission drops the entry (the hardware
  // re-walks on permission faults).
  bool tlb_try(Vcpu& vcpu, std::uint16_t pcid, std::uint64_t gva, AccessType access,
               bool user_mode) {
    const auto hit = vcpu.tlb.lookup(vpid_, pcid, page_number(gva));
    if (!hit.hit) {
      counters_->add(Counter::kTlbMiss);
      return false;
    }
    const bool ok = !(access == AccessType::kWrite && !hit.writable) && !(user_mode && !hit.user);
    if (!ok) {
      vcpu.tlb.flush_page(vpid_, pcid, page_number(gva));
      counters_->add(Counter::kTlbMiss);
      return false;
    }
    counters_->add(Counter::kTlbHit);
    return true;
  }

  // Drops every possible TLB alias of a guest page (user + kernel tags).
  void tlb_drop_page(Vcpu& vcpu, const GuestProcess& proc, std::uint64_t gva) {
    vcpu.tlb.flush_page(vpid_, proc.user_pcid(), page_number(gva));
    vcpu.tlb.flush_page(vpid_, proc.kernel_pcid(), page_number(gva));
    vcpu.tlb.flush_page(vpid_, 0, page_number(gva));
  }

  // In-guest #PF delivery + iret: ring crossings inside the guest, no exit.
  // This is the EPT-scheme fast path the paper's fork/exec rows highlight.
  Task<void> guest_local_fault_entry() {
    co_await sim_->delay(costs_->ring_crossing + costs_->guest_exception_delivery);
  }
  Task<void> guest_local_fault_return() { co_await sim_->delay(costs_->ring_crossing); }

  [[noreturn]] void fault_loop_error(std::uint64_t gva) const {
    throw std::logic_error(label_ + ": access at gva " + std::to_string(gva) +
                           " did not converge (fault-handling bug)");
  }

  // What a dirty-tracking write-protect fault (or PML flush exit) costs on
  // this backend: one exit round trip through its own exit machinery. The
  // VMX default fits the EPT-family and kvm-spt backends; PVM backends
  // override with the (cheaper) switcher round trip — the same asymmetry
  // the paper's Table 1 measures for every other exit.
  virtual std::uint64_t dirty_exit_roundtrip_ns() const {
    return costs_->vmx_roundtrip() + costs_->l0_exit_dispatch;
  }

  // Runs at every *successful* guest store (both the TLB-hit and the
  // walk-OK exits of access()): records the page against the migration
  // dirty tracker and charges whatever the active protocol makes the store
  // cost. Reads and untracked writes fall through on the first branch.
  Task<void> dirty_note(const Vcpu& vcpu, const GuestProcess& proc, std::uint64_t gva,
                        AccessType access) {
    if (dirty_ == nullptr || access != AccessType::kWrite || !dirty_->armed()) {
      co_return;
    }
    switch (dirty_->note_store(vcpu.id, dirty_page_key(proc.pid(), gva))) {
      case DirtyStoreOutcome::kClean:
        co_return;
      case DirtyStoreOutcome::kWpFault: {
        counters_->add(Counter::kDirtyWpFault);
        obs::SpanScope span(sim_->spans(), obs::Phase::kDirtyTrack, gva);
        co_await sim_->delay(dirty_exit_roundtrip_ns() + costs_->dirty_wp_unprotect);
        co_return;
      }
      case DirtyStoreOutcome::kPmlAppend: {
        counters_->add(Counter::kDirtyPmlLog);
        obs::SpanScope span(sim_->spans(), obs::Phase::kDirtyTrack, gva);
        co_await sim_->delay(costs_->pml_log_append);
        co_return;
      }
      case DirtyStoreOutcome::kPmlFlush: {
        counters_->add(Counter::kDirtyPmlLog);
        counters_->add(Counter::kDirtyPmlFlush);
        obs::SpanScope span(sim_->spans(), obs::Phase::kDirtyTrack, gva);
        co_await sim_->delay(dirty_exit_roundtrip_ns() + costs_->pml_flush_drain);
        co_return;
      }
    }
  }

  Simulation* sim_;
  const CostModel* costs_;
  CounterSet* counters_;
  std::string label_;
  std::uint16_t vpid_;
  DirtyTracker* dirty_ = nullptr;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_MEMORY_COMMON_H_
