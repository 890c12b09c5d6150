#include "src/backends/platform.h"

#include <stdexcept>

#include "src/obs/span.h"
#include "src/obs/ts.h"

#include "src/backends/ept_memory_backend.h"
#include "src/backends/ept_on_ept_memory_backend.h"
#include "src/backends/kvm_spt_memory_backend.h"
#include "src/backends/pvm_cpu_backend.h"
#include "src/backends/pvm_direct_memory_backend.h"
#include "src/backends/pvm_memory_backend.h"
#include "src/backends/spt_on_ept_memory_backend.h"
#include "src/backends/vmx_cpu_backend.h"

namespace pvm {

Task<void> SecureContainer::compute(SimTime ns) {
  obs::SpanScope span(sim_->spans(), obs::Phase::kCompute, ns);
  // Timeslice through the host CPU pool: FIFO quanta approximate the host
  // scheduler's round robin. Uncontended, this degenerates to a plain delay.
  constexpr SimTime kQuantum = 1 * kNsPerMs;
  SimTime remaining = ns;
  while (remaining > 0) {
    const SimTime slice = remaining < kQuantum ? remaining : kQuantum;
    ScopedResource cpu = co_await platform_->host_cpus().scoped();
    co_await sim_->delay(slice);
    remaining -= slice;
  }
}

Task<void> SecureContainer::boot(int init_pages, std::uint64_t image_bytes) {
  obs::SpanScope span(sim_->spans(), obs::Phase::kOpBoot,
                      static_cast<std::uint64_t>(init_pages));
  const SimTime start = sim_->now();
  Vcpu& vcpu = add_vcpu();
  init_process_ = co_await kernel_->create_init_process(vcpu, init_pages);
  if (init_process_ == nullptr || init_process_->oom_killed()) {
    // The boot storm exhausted backing memory before init came up; the
    // container never starts.
    boot_failed_ = true;
    boot_latency_ = sim_->now() - start;
    if (ts::Collector* ts = sim_->ts()) {
      ts->count("boot_failures");
      ts->observe("boot_latency_ns", boot_latency_);
    }
    co_return;
  }
  // Pull the container image / rootfs metadata: one I/O burst.
  co_await kernel_->do_io(vcpu, *init_process_, *io_, image_bytes);
  if (init_process_->oom_killed()) {
    boot_failed_ = true;
  }
  boot_latency_ = sim_->now() - start;
  if (ts::Collector* ts = sim_->ts()) {
    ts->count(boot_failed_ ? "boot_failures" : "boot_completions");
    ts->observe("boot_latency_ns", boot_latency_);
  }
}

VirtualPlatform::VirtualPlatform(const PlatformConfig& config)
    : config_(config), l0_(sim_, costs_, counters_, config.host_frames) {
  // Before any work is spawned, so the whole run uses one schedule.
  sim_.set_schedule_policy(config_.schedule_policy, config_.schedule_seed);
  // The flight recorder is always on: every instrumented site pays one null
  // check, and a failure anywhere in the run can dump the last N events.
  sim_.set_flight(&flight_);
  if (deploy_mode_is_nested(config_.mode)) {
    // The general-purpose instances leased from the IaaS cloud:
    // long-running, EPT01 warm (§4's assumption).
    const int instances = config_.l1_instances > 0 ? config_.l1_instances : 1;
    for (int i = 0; i < instances; ++i) {
      const std::string name =
          instances == 1 ? "l1-instance" : "l1-instance" + std::to_string(i);
      l1_vms_.push_back(&l0_.create_vm(name, config_.l1_frames, /*prewarm_ept=*/true));
    }
  }
  if (deploy_mode_is_pvm(config_.mode)) {
    PvmHypervisor::Options options;
    options.direct_switch = config_.direct_switch;
    options.prefault = config_.prefault;
    options.pcid_mapping = config_.pcid_mapping;
    options.fine_grained_locks = config_.fine_grained_locks;
    options.dual_spt = true;  // PVM always isolates guest user/kernel
    options.switcher_pf_classify = config_.switcher_pf_classify;
    options.collaborative_pt = config_.collaborative_pt;
    pvm_ = std::make_unique<PvmHypervisor>(sim_, costs_, counters_, options);
  }
}

VirtualPlatform::~VirtualPlatform() {
  // Pending frames hold ScopedResource guards on locks owned by the members
  // below; destroy the frames while those locks are still alive.
  sim_.abandon_pending();
}

SecureContainer& VirtualPlatform::create_container(const std::string& name) {
  auto container = std::unique_ptr<SecureContainer>(new SecureContainer());
  SecureContainer& c = *container;
  c.name_ = name;
  c.sim_ = &sim_;
  c.platform_ = this;
  c.io_ = std::make_unique<IoDevice>(sim_, costs_, name + ".virtio");

  const std::uint16_t l2_vpid = next_l2_vpid_++;
  // Round-robin placement across the leased L1 instances (nested modes).
  HostHypervisor::Vm* const placed_l1 =
      l1_vms_.empty() ? nullptr : l1_vms_[containers_.size() % l1_vms_.size()];

  switch (config_.mode) {
    case DeployMode::kKvmEptBm: {
      c.vm_ = &l0_.create_vm(name, config_.container_frames, /*prewarm_ept=*/false);
      c.gpa_frames_ = &c.vm_->gpa_frames();
      c.mem_ = std::make_unique<EptMemoryBackend>(l0_, *c.vm_, config_.kpti);
      VmxCpuBackend::Options cpu_options;
      cpu_options.kpti = config_.kpti;
      c.cpu_ = std::make_unique<VmxCpuBackend>(l0_, *c.vm_, cpu_options);
      break;
    }
    case DeployMode::kKvmSptBm: {
      c.vm_ = &l0_.create_vm(name, config_.container_frames, /*prewarm_ept=*/false);
      c.gpa_frames_ = &c.vm_->gpa_frames();
      c.mem_ = std::make_unique<KvmSptMemoryBackend>(l0_, *c.vm_, config_.kpti);
      VmxCpuBackend::Options cpu_options;
      cpu_options.kpti = config_.kpti;
      cpu_options.spt_mode = true;
      c.cpu_ = std::make_unique<VmxCpuBackend>(l0_, *c.vm_, cpu_options);
      break;
    }
    case DeployMode::kPvmBm: {
      c.owned_gpa_ = std::make_unique<FrameAllocator>(name + ".gpa", config_.container_frames);
      c.gpa_frames_ = c.owned_gpa_.get();
      c.engine_ = pvm_->create_memory_engine(l0_.host_frames(), name);
      c.mem_ = std::make_unique<PvmMemoryBackend>(*pvm_, *c.engine_, nullptr, nullptr, l2_vpid,
                                                  name);
      c.cpu_ = std::make_unique<PvmCpuBackend>(*pvm_, *c.engine_, nullptr, nullptr, l2_vpid);
      break;
    }
    case DeployMode::kKvmEptNst: {
      c.owned_gpa_ = std::make_unique<FrameAllocator>(name + ".gpa", config_.container_frames);
      c.gpa_frames_ = c.owned_gpa_.get();
      placed_l1->set_nested_vmx_active(true);  // nVMX in use: L1 pinned (§2.3)
      c.mem_ = std::make_unique<EptOnEptMemoryBackend>(l0_, *placed_l1, l2_vpid, name,
                                                       config_.kpti);
      VmxCpuBackend::Options cpu_options;
      cpu_options.kpti = config_.kpti;
      cpu_options.nested = true;
      c.cpu_ = std::make_unique<VmxCpuBackend>(l0_, *placed_l1, cpu_options);
      break;
    }
    case DeployMode::kPvmNst: {
      c.owned_gpa_ = std::make_unique<FrameAllocator>(name + ".gpa", config_.container_frames);
      c.gpa_frames_ = c.owned_gpa_.get();
      c.engine_ = pvm_->create_memory_engine(placed_l1->gpa_frames(), name);
      c.mem_ = std::make_unique<PvmMemoryBackend>(*pvm_, *c.engine_, &l0_, placed_l1, l2_vpid,
                                                  name);
      c.cpu_ = std::make_unique<PvmCpuBackend>(*pvm_, *c.engine_, &l0_, placed_l1, l2_vpid);
      break;
    }
    case DeployMode::kPvmDirectNst: {
      // Direct paging: the guest's "physical" space IS the L1 space — its
      // page tables hold machine frames, so no shadow dimension exists.
      c.gpa_frames_ = &placed_l1->gpa_frames();
      c.engine_ = pvm_->create_memory_engine(placed_l1->gpa_frames(), name);  // PCID reuse
      c.mem_ = std::make_unique<PvmDirectMemoryBackend>(*pvm_, &l0_, placed_l1, l2_vpid, name);
      c.cpu_ = std::make_unique<PvmCpuBackend>(*pvm_, *c.engine_, &l0_, placed_l1, l2_vpid);
      break;
    }
    case DeployMode::kSptOnEptNst: {
      c.owned_gpa_ = std::make_unique<FrameAllocator>(name + ".gpa", config_.container_frames);
      c.gpa_frames_ = c.owned_gpa_.get();
      placed_l1->set_nested_vmx_active(true);  // nVMX in use: L1 pinned (§2.3)
      c.mem_ = std::make_unique<SptOnEptMemoryBackend>(l0_, *placed_l1, l2_vpid, name,
                                                       config_.kpti);
      VmxCpuBackend::Options cpu_options;
      cpu_options.kpti = config_.kpti;
      cpu_options.nested = true;
      cpu_options.spt_mode = true;
      c.cpu_ = std::make_unique<VmxCpuBackend>(l0_, *placed_l1, cpu_options);
      break;
    }
  }

  // Migration dirty tracking: each backend notes guest stores against the VM
  // that L0 would migrate — the container VM in bare-metal modes, the
  // hosting L1 instance when nested. pvm (BM) has no L0-visible VM at all.
  if (HostHypervisor::Vm* tracked = c.vm_ != nullptr ? c.vm_ : placed_l1;
      tracked != nullptr) {
    if (auto* mem_base = dynamic_cast<MemoryBackendBase*>(c.mem_.get())) {
      mem_base->set_dirty_tracker(&tracked->dirty_tracker());
    }
  }

  c.kernel_ = std::make_unique<GuestKernel>(sim_, costs_, counters_, *c.gpa_frames_, *c.mem_,
                                            *c.cpu_, config_.kpti);
  containers_.push_back(std::move(container));
  SecureContainer* raw = containers_.back().get();
  const auto vcpu_provider = [raw]() { return raw->vcpu_count(); };
  if (raw->engine_) {
    raw->engine_->set_vcpu_count_provider(vcpu_provider);
  }
  if (auto* spt = dynamic_cast<KvmSptMemoryBackend*>(raw->mem_.get())) {
    spt->engine().set_vcpu_count_provider(vcpu_provider);
  }
  if (auto* soe = dynamic_cast<SptOnEptMemoryBackend*>(raw->mem_.get())) {
    soe->engine().set_vcpu_count_provider(vcpu_provider);
  }
  if (config_.coherence_oracle) {
    if (PvmMemoryEngine* engine = raw->shadow_engine()) {
      // Collaborative PT sync legitimately defers shadow updates through its
      // batch ring, so strict guest-PT agreement would false-positive there.
      engine->enable_coherence_oracle(/*strict_gpt=*/!config_.collaborative_pt);
    }
  }
  if (PvmMemoryEngine* engine = raw->shadow_engine()) {
    // A reclaim that zaps live shadow entries must invalidate every vCPU
    // that may cache stale translations: full-VPID flush, same hammer a
    // real SPT zap swings.
    const std::uint16_t flush_vpid = raw->vm_ != nullptr ? raw->vm_->vpid() : l2_vpid;
    engine->set_reclaim_flush([raw, flush_vpid]() {
      for (std::size_t i = 0; i < raw->vcpu_count(); ++i) {
        raw->vcpu(i).tlb.flush_vpid(flush_vpid);
      }
    });
  }
  if (faults_ != nullptr) {
    raw->gpa_frames_->set_faults(faults_);
  }
  return *raw;
}

void VirtualPlatform::arm_faults(fault::FaultInjector* faults) {
  faults_ = faults;
  sim_.set_faults(faults);
  l0_.host_frames().set_faults(faults);
  for (HostHypervisor::Vm* vm : l1_vms_) {
    vm->gpa_frames().set_faults(faults);
  }
  for (const auto& container : containers_) {
    container->gpa_frames_->set_faults(faults);
  }
}

PvmMemoryEngine* SecureContainer::shadow_engine() {
  if (engine_) {
    return engine_.get();
  }
  if (auto* spt = dynamic_cast<KvmSptMemoryBackend*>(mem_.get())) {
    return &spt->engine();
  }
  if (auto* soe = dynamic_cast<SptOnEptMemoryBackend*>(mem_.get())) {
    return &soe->engine();
  }
  return nullptr;
}

SlabStats VirtualPlatform::engine_alloc_stats() {
  SlabStats stats;
  for (const auto& container : containers_) {
    if (PvmMemoryEngine* engine = container->shadow_engine()) {
      stats += engine->alloc_stats();
    }
  }
  return stats;
}

std::size_t VirtualPlatform::total_vcpus() const {
  std::size_t total = 0;
  for (const auto& container : containers_) {
    total += container->vcpu_count();
  }
  return total;
}

double VirtualPlatform::oversubscription_factor() const {
  const double total = static_cast<double>(total_vcpus());
  const double cpus = static_cast<double>(config_.host_cpus);
  return total > cpus ? total / cpus : 1.0;
}

}  // namespace pvm
