// Security/isolation properties across deployments (paper §5 threat model):
// guest user code must never reach kernel-half translations; permission
// narrowing must be visible immediately (no stale writable TLB entries);
// address spaces of different processes and different containers must not
// alias each other's TLB tags.

#include <gtest/gtest.h>

#include "src/backends/platform.h"
#include "src/backends/pvm_memory_backend.h"

namespace pvm {
namespace {

constexpr DeployMode kAllModes[] = {DeployMode::kKvmEptBm,  DeployMode::kKvmSptBm,
                                    DeployMode::kPvmBm,     DeployMode::kKvmEptNst,
                                    DeployMode::kPvmNst,    DeployMode::kSptOnEptNst};

struct Harness {
  explicit Harness(DeployMode mode) {
    PlatformConfig config;
    config.mode = mode;
    platform = std::make_unique<VirtualPlatform>(config);
    container = &platform->create_container("c0");
    platform->sim().spawn(container->boot(8));
    platform->sim().run();
  }
  void run(Task<void> task) {
    platform->sim().spawn(std::move(task));
    platform->sim().run();
  }
  std::unique_ptr<VirtualPlatform> platform;
  SecureContainer* container;
};

class IsolationAllModes : public ::testing::TestWithParam<DeployMode> {};

TEST_P(IsolationAllModes, WriteProtectIsVisibleImmediately) {
  // Narrowing a mapping (e.g. fork's COW arm) must invalidate any cached
  // writable translation — otherwise the guest could keep writing a shared
  // frame. We verify via the COW counter: the write after protect faults.
  Harness h(GetParam());
  GuestKernel& kernel = h.container->kernel();
  GuestProcess& proc = *h.container->init_process();
  Vcpu& vcpu = h.container->vcpu(0);

  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
    const std::uint64_t base = co_await k.sys_mmap(v, p, kPageSize);
    co_await k.touch(v, p, base, true);  // writable + cached in TLB
    co_await k.mem().gpt_protect(v, p, base, /*writable=*/false, /*mark_cow=*/true);
  }(kernel, vcpu, proc));

  const CounterSet before = h.platform->counters();
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
    auto it = p.vmas().upper_bound(GuestProcess::kStackBase - 1);
    const std::uint64_t base = std::prev(it)->second.start;
    co_await k.touch(v, p, base, true);  // must fault, not silently write
  }(kernel, vcpu, proc));
  const CounterSet d = h.platform->counters().delta_since(before);
  EXPECT_GE(d.get(Counter::kGuestPageFault), 1u)
      << "write after protect did not fault under " << deploy_mode_name(GetParam());
  EXPECT_GE(d.get(Counter::kCowBreak), 1u);
}

TEST_P(IsolationAllModes, UnmapIsVisibleImmediately) {
  Harness h(GetParam());
  GuestKernel& kernel = h.container->kernel();
  GuestProcess& proc = *h.container->init_process();
  Vcpu& vcpu = h.container->vcpu(0);

  std::uint64_t base = 0;
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& p, std::uint64_t* out) -> Task<void> {
    *out = co_await k.sys_mmap(v, p, kPageSize);
    co_await k.touch(v, p, *out, true);
    co_await k.sys_munmap(v, p, *out);
    // Remap the same range: the fresh touch must demand-page a new frame,
    // not hit a stale cached translation of the old one.
    p.vmas()[*out] = Vma{*out, kPageSize, true};
  }(kernel, vcpu, proc, &base));

  const CounterSet before = h.platform->counters();
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& p, std::uint64_t gva) -> Task<void> {
    co_await k.touch(v, p, gva, true);
  }(kernel, vcpu, proc, base));
  EXPECT_GE(h.platform->counters().delta_since(before).get(Counter::kGuestPageFault), 1u)
      << "stale translation survived munmap under " << deploy_mode_name(GetParam());
}

TEST_P(IsolationAllModes, ProcessesDoNotShareTlbTranslations) {
  // Process B touching the same virtual address as process A must fault and
  // get its own frame — the TLB tags (PCID or flush policy) must prevent B
  // from riding on A's cached translation.
  Harness h(GetParam());
  GuestKernel& kernel = h.container->kernel();
  Vcpu& vcpu = h.container->vcpu(0);
  GuestProcess& a = *h.container->init_process();

  GuestProcess* b = nullptr;
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& pa, GuestProcess** out) -> Task<void> {
    const std::uint64_t va = co_await k.sys_mmap(v, pa, kPageSize);
    (void)va;
    *out = co_await k.sys_fork(v, pa);
  }(kernel, vcpu, a, &b));
  ASSERT_NE(b, nullptr);

  // A touches a page in its private region.
  std::uint64_t shared_va = 0;
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& pa, std::uint64_t* out) -> Task<void> {
    *out = co_await k.sys_mmap(v, pa, kPageSize);
    co_await k.touch(v, pa, *out, true);
  }(kernel, vcpu, a, &shared_va));

  // Give B a VMA at the identical virtual address and touch from B.
  b->vmas()[shared_va] = Vma{shared_va, kPageSize, true};
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& pb) -> Task<void> {
    co_await k.mem().activate_process(v, pb, false);
  }(kernel, vcpu, *b));
  const CounterSet before = h.platform->counters();
  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& pb, std::uint64_t gva) -> Task<void> {
    co_await k.touch(v, pb, gva, true);
  }(kernel, vcpu, *b, shared_va));
  const CounterSet d = h.platform->counters().delta_since(before);
  EXPECT_GE(d.get(Counter::kGuestPageFault), 1u)
      << "process B reused process A's translation under "
      << deploy_mode_name(GetParam());
  // And they ended up on different frames.
  EXPECT_NE(a.gpt().find_pte(shared_va)->frame_number(),
            b->gpt().find_pte(shared_va)->frame_number());
}

INSTANTIATE_TEST_SUITE_P(Modes, IsolationAllModes, ::testing::ValuesIn(kAllModes),
                         [](const ::testing::TestParamInfo<DeployMode>& param_info) {
                           std::string name(deploy_mode_name(param_info.param));
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(PvmIsolationTest, UserSptNeverMapsKernelAddresses) {
  // The dual-SPT design (§3.3.2): the guest user's shadow table must never
  // contain kernel-half translations, KPTI-style.
  Harness h(DeployMode::kPvmNst);
  GuestKernel& kernel = h.container->kernel();
  GuestProcess& proc = *h.container->init_process();
  Vcpu& vcpu = h.container->vcpu(0);

  h.run([](GuestKernel& k, Vcpu& v, GuestProcess& p) -> Task<void> {
    // Kernel-mode accesses (kernel half) + user-mode accesses (user half).
    for (int i = 0; i < 8; ++i) {
      co_await k.touch_kernel(v, p, static_cast<std::uint64_t>(i) * kPageSize);
    }
    const std::uint64_t base = co_await k.sys_mmap(v, p, 8 * kPageSize);
    for (int i = 0; i < 8; ++i) {
      co_await k.touch(v, p, base + static_cast<std::uint64_t>(i) * kPageSize, true);
    }
  }(kernel, vcpu, proc));

  auto* backend = dynamic_cast<PvmMemoryBackend*>(&h.container->mem());
  ASSERT_NE(backend, nullptr);
  const PageTable& user_spt = backend->engine().spt(proc.pid(), /*kernel_ring=*/false);
  user_spt.for_each_leaf([&](std::uint64_t gva, const Pte&) {
    EXPECT_LT(gva, GuestProcess::kKernelBase)
        << "kernel address leaked into the user shadow table";
  });
  // And the kernel SPT did receive the kernel-half fills, at kernel-half
  // addresses.
  const PageTable& kernel_spt = backend->engine().spt(proc.pid(), /*kernel_ring=*/true);
  EXPECT_GE(kernel_spt.present_leaf_count(), 8u);
  std::uint64_t kernel_half_leaves = 0;
  kernel_spt.for_each_leaf([&](std::uint64_t gva, const Pte&) {
    kernel_half_leaves += gva >= GuestProcess::kKernelBase ? 1 : 0;
  });
  EXPECT_GE(kernel_half_leaves, 8u);
}

TEST(PvmIsolationTest, ContainersHaveDistinctVpidTags) {
  // Two containers' translations never alias: their TLB tags differ by VPID.
  PlatformConfig config;
  config.mode = DeployMode::kPvmNst;
  VirtualPlatform platform(config);
  SecureContainer& a = platform.create_container("a");
  SecureContainer& b = platform.create_container("b");
  platform.sim().spawn(a.boot(8));
  platform.sim().spawn(b.boot(8));
  platform.sim().run();

  // Same virtual address, same (mapped) PCID range — but different vCPUs and
  // VPIDs, so the TLB state cannot cross.
  auto* backend_a = dynamic_cast<PvmMemoryBackend*>(&a.mem());
  auto* backend_b = dynamic_cast<PvmMemoryBackend*>(&b.mem());
  ASSERT_NE(backend_a, nullptr);
  ASSERT_NE(backend_b, nullptr);
  EXPECT_NE(&backend_a->engine(), &backend_b->engine());
  // Independent shadow state entirely.
  EXPECT_NE(&backend_a->engine().gpa_map(), &backend_b->engine().gpa_map());
}

}  // namespace
}  // namespace pvm
