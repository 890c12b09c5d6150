// Platform assembly: one deployment configuration, fully wired.
//
// VirtualPlatform owns the simulation, the L0 host hypervisor, the L1
// instance and PVM hypervisor (when the mode calls for them), and the secure
// containers. It is the top-level object examples, tests, and benchmarks
// construct:
//
//   VirtualPlatform platform({.mode = DeployMode::kPvmNst});
//   SecureContainer& c = platform.create_container("c0");
//   platform.sim().spawn(c.boot());
//   platform.sim().run();

#ifndef PVM_SRC_BACKENDS_PLATFORM_H_
#define PVM_SRC_BACKENDS_PLATFORM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/cost_model.h"
#include "src/backends/config.h"
#include "src/core/memory_engine.h"
#include "src/core/pvm_hypervisor.h"
#include "src/guest/backend_iface.h"
#include "src/guest/guest_kernel.h"
#include "src/guest/io_device.h"
#include "src/hv/host_hypervisor.h"
#include "src/metrics/counters.h"
#include "src/obs/flight.h"
#include "src/sim/simulation.h"

namespace pvm {

class VirtualPlatform;

// A secure container: one lightweight VM (Kata-style) with its own guest
// kernel, paravirtual I/O device, and vCPUs.
class SecureContainer {
 public:
  const std::string& name() const { return name_; }
  Simulation& sim() { return *sim_; }
  GuestKernel& kernel() { return *kernel_; }
  IoDevice& io() { return *io_; }
  FrameAllocator& gpa_frames() { return *gpa_frames_; }
  MemoryBackend& mem() { return *mem_; }
  CpuBackend& cpu() { return *cpu_; }

  Vcpu& add_vcpu() {
    vcpus_.push_back(std::make_unique<Vcpu>(static_cast<int>(vcpus_.size())));
    return *vcpus_.back();
  }
  Vcpu& vcpu(std::size_t index) { return *vcpus_.at(index); }
  std::size_t vcpu_count() const { return vcpus_.size(); }

  // Container startup (RunD-style): boot vCPU 0, create the init process
  // with `init_pages` resident pages, load the image (one I/O burst of
  // `image_bytes`). Records the startup latency for the high-density
  // experiment (Fig. 12). Snapshot-restore starts (pvm::fleet) pass a
  // smaller resident set and image than a from-scratch boot.
  Task<void> boot(int init_pages = 64, std::uint64_t image_bytes = 256 * 1024);

  // Charges `ns` of guest compute on a host CPU. With more runnable vCPUs
  // than host CPUs the pool queues in timeslices, so oversubscription
  // slowdown (Fig. 12) emerges from contention rather than a scale factor.
  Task<void> compute(SimTime ns);

  GuestProcess* init_process() { return init_process_; }
  SimTime boot_latency() const { return boot_latency_; }

  // True when boot() could not bring the init process up (it was OOM-killed
  // while the host was exhausted, or the watchdog killed the container).
  // Fig. 12 counts these as container crashes.
  bool boot_failed() const { return boot_failed_; }

  // The shadow-paging engine backing this container, if the deployment mode
  // has one (PVM modes, kvm-spt, spt-on-ept); null for EPT/direct-paging
  // modes. simcheck uses it to run strict oracle checks at quiescent points.
  PvmMemoryEngine* shadow_engine();

  // The L0 VM directly hosting this container in bare-metal modes (the one
  // L0 would migrate); null in nested modes, where the migratable unit is
  // the shared L1 instance (VirtualPlatform::l1_vm()).
  HostHypervisor::Vm* host_vm() { return vm_; }

 private:
  friend class VirtualPlatform;
  SecureContainer() = default;

  std::string name_;
  Simulation* sim_ = nullptr;
  VirtualPlatform* platform_ = nullptr;
  FrameAllocator* gpa_frames_ = nullptr;
  std::unique_ptr<FrameAllocator> owned_gpa_;
  std::unique_ptr<PvmMemoryEngine> engine_;
  std::unique_ptr<MemoryBackend> mem_;
  std::unique_ptr<CpuBackend> cpu_;
  std::unique_ptr<GuestKernel> kernel_;
  std::unique_ptr<IoDevice> io_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
  HostHypervisor::Vm* vm_ = nullptr;  // bare-metal modes only
  GuestProcess* init_process_ = nullptr;
  SimTime boot_latency_ = 0;
  bool boot_failed_ = false;
};

class VirtualPlatform {
 public:
  explicit VirtualPlatform(const PlatformConfig& config);
  // Destroys any still-pending root coroutines before the members (locks,
  // engines, containers) their frames hold guards on — required when the
  // platform is torn down after a deadlocked run (simcheck does this).
  ~VirtualPlatform();
  VirtualPlatform(const VirtualPlatform&) = delete;
  VirtualPlatform& operator=(const VirtualPlatform&) = delete;

  const PlatformConfig& config() const { return config_; }
  Simulation& sim() { return sim_; }
  CounterSet& counters() { return counters_; }
  const CostModel& costs() const { return costs_; }
  HostHypervisor& l0() { return l0_; }
  // The first (or only) L1 instance; null in bare-metal modes.
  HostHypervisor::Vm* l1_vm() { return l1_vms_.empty() ? nullptr : l1_vms_.front(); }
  const std::vector<HostHypervisor::Vm*>& l1_vms() const { return l1_vms_; }
  PvmHypervisor* pvm() { return pvm_.get(); }

  SecureContainer& create_container(const std::string& name);
  const std::vector<std::unique_ptr<SecureContainer>>& containers() const {
    return containers_;
  }

  // Total guest vCPUs across containers, and the compute-slowdown factor
  // when they oversubscribe the host (Fig. 12 regime).
  std::size_t total_vcpus() const;
  double oversubscription_factor() const;

  // The host's physical CPUs; guest compute bursts queue here in timeslices.
  Resource& host_cpus() { return host_cpus_; }

  // Arms deterministic fault injection across every layer in one call: the
  // simulation (lock handoff delays, exit spikes, VMRESUME failures), the L0
  // host frame pool, each L1 instance's GPA pool, and each container's own
  // allocator. Containers created after the call are wired on creation.
  // Pass nullptr to disarm. The injector must outlive the platform's runs.
  void arm_faults(fault::FaultInjector* faults);
  fault::FaultInjector* faults() const { return faults_; }

  // The always-on black-box flight recorder. Every platform owns one and
  // attaches it to the simulation at construction, so the last N events per
  // track are available for a postmortem dump on any failure path.
  flight::FlightRecorder& flight() { return flight_; }
  const flight::FlightRecorder& flight() const { return flight_; }

  // Aggregated arena accounting across every container's shadow engine:
  // page-table nodes (shadow tables + gpa_map) plus rmap chain nodes. All
  // zeros in modes with no shadow dimension (EPT, direct paging). Feeds the
  // opt-in `alloc` section of the bench export (--alloc-stats).
  SlabStats engine_alloc_stats();

 private:
  PlatformConfig config_;
  CostModel costs_;
  Simulation sim_;
  Resource host_cpus_{sim_, "host.cpus",
                      static_cast<std::uint32_t>(config_.host_cpus > 0 ? config_.host_cpus : 1)};
  CounterSet counters_;
  flight::FlightRecorder flight_;
  HostHypervisor l0_;
  std::vector<HostHypervisor::Vm*> l1_vms_;
  std::unique_ptr<PvmHypervisor> pvm_;
  std::vector<std::unique_ptr<SecureContainer>> containers_;
  std::uint16_t next_l2_vpid_ = 100;
  fault::FaultInjector* faults_ = nullptr;
};

}  // namespace pvm

#endif  // PVM_SRC_BACKENDS_PLATFORM_H_
