// Unit tests for the guest kernel: demand paging, COW fork semantics (frame
// sharing, refcounts, breaks), exec/exit teardown, munmap frame release,
// fault classification, and file-op kernel-page allocation.

#include <gtest/gtest.h>

#include "src/backends/platform.h"

namespace pvm {
namespace {

// All guest-kernel semantics are deployment-independent; use kvm-ept (BM)
// where traps don't obscure the state changes.
struct KernelHarness {
  KernelHarness() {
    PlatformConfig config;
    config.mode = DeployMode::kKvmEptBm;
    platform = std::make_unique<VirtualPlatform>(config);
    container = &platform->create_container("c0");
    platform->sim().spawn(container->boot(16));
    platform->sim().run();
  }

  void run(Task<void> task) {
    platform->sim().spawn(std::move(task));
    platform->sim().run();
    ASSERT_TRUE(platform->sim().all_tasks_done());
  }

  GuestKernel& kernel() { return container->kernel(); }
  Vcpu& vcpu() { return container->vcpu(0); }
  GuestProcess& init() { return *container->init_process(); }

  std::unique_ptr<VirtualPlatform> platform;
  SecureContainer* container = nullptr;
};

TEST(GuestKernelTest, TouchDemandPagesExactlyOnce) {
  KernelHarness h;
  const std::uint64_t frames_before = h.container->gpa_frames().allocated();
  const CounterSet before = h.platform->counters();
  h.run([](KernelHarness& hh) -> Task<void> {
    const std::uint64_t base = co_await hh.kernel().sys_mmap(hh.vcpu(), hh.init(), 4 * kPageSize);
    co_await hh.kernel().touch(hh.vcpu(), hh.init(), base, true);
    co_await hh.kernel().touch(hh.vcpu(), hh.init(), base, true);  // second touch: no fault
    co_await hh.kernel().touch(hh.vcpu(), hh.init(), base + 1, false);  // same page
  }(h));
  // One data frame; the GPT may also have allocated up to 3 table-node
  // frames for the fresh address range (they come from the same space).
  const std::uint64_t delta = h.container->gpa_frames().allocated() - frames_before;
  EXPECT_GE(delta, 1u);
  EXPECT_LE(delta, 4u);
  EXPECT_EQ(h.platform->counters().delta_since(before).get(Counter::kGuestPageFault), 1u);
}

TEST(GuestKernelTest, TouchOutsideVmaThrows) {
  KernelHarness h;
  EXPECT_THROW(
      {
        h.platform->sim().spawn([](KernelHarness& hh) -> Task<void> {
          co_await hh.kernel().touch(hh.vcpu(), hh.init(), 0xdead0000, true);
        }(h));
        h.platform->sim().run();
      },
      std::logic_error);
}

TEST(GuestKernelTest, MunmapReleasesFrames) {
  KernelHarness h;
  const std::size_t data_before = h.init().data_frames().size();
  const std::uint64_t before = h.container->gpa_frames().allocated();
  h.run([](KernelHarness& hh) -> Task<void> {
    const std::uint64_t base =
        co_await hh.kernel().sys_mmap(hh.vcpu(), hh.init(), 16 * kPageSize);
    for (int i = 0; i < 16; ++i) {
      co_await hh.kernel().touch(hh.vcpu(), hh.init(),
                                 base + static_cast<std::uint64_t>(i) * kPageSize, true);
    }
    co_await hh.kernel().sys_munmap(hh.vcpu(), hh.init(), base);
  }(h));
  // All 16 data frames came back; only GPT table-node frames (kept, as real
  // kernels do) may remain allocated.
  EXPECT_EQ(h.init().data_frames().size(), data_before);
  EXPECT_LE(h.container->gpa_frames().allocated(), before + 3);
  EXPECT_TRUE(h.init().vmas().size() >= 3);  // code/stack/kernel survive
}

TEST(GuestKernelTest, ForkSharesFramesCopyOnWrite) {
  KernelHarness h;
  GuestProcess* child = nullptr;
  h.run([](KernelHarness& hh, GuestProcess** out) -> Task<void> {
    *out = co_await hh.kernel().sys_fork(hh.vcpu(), hh.init());
  }(h, &child));
  ASSERT_NE(child, nullptr);

  // Child aliases the parent's user frames read-only.
  std::size_t shared = 0;
  for (const auto& [gva, frame] : h.init().data_frames()) {
    if (gva >= GuestProcess::kKernelBase) {
      continue;
    }
    const Pte* parent_pte = h.init().gpt().find_pte(gva);
    const Pte* child_pte = child->gpt().find_pte(gva);
    ASSERT_NE(parent_pte, nullptr);
    ASSERT_NE(child_pte, nullptr);
    EXPECT_EQ(parent_pte->frame_number(), child_pte->frame_number());
    EXPECT_FALSE(parent_pte->writable()) << "parent page not write-protected";
    EXPECT_FALSE(child_pte->writable());
    EXPECT_TRUE(child_pte->cow());
    EXPECT_EQ(h.kernel().cow_refs(frame), 2);
    ++shared;
  }
  EXPECT_GT(shared, 0u);
}

TEST(GuestKernelTest, CowBreakCopiesSharedFrame) {
  KernelHarness h;
  GuestProcess* child = nullptr;
  h.run([](KernelHarness& hh, GuestProcess** out) -> Task<void> {
    *out = co_await hh.kernel().sys_fork(hh.vcpu(), hh.init());
    co_await hh.kernel().mem().activate_process(hh.vcpu(), **out, false);
    // The child writes an inherited stack page: COW must break.
    co_await hh.kernel().touch(hh.vcpu(), **out, GuestProcess::kStackBase, true);
  }(h, &child));

  const Pte* parent_pte = h.init().gpt().find_pte(GuestProcess::kStackBase);
  const Pte* child_pte = child->gpt().find_pte(GuestProcess::kStackBase);
  ASSERT_NE(parent_pte, nullptr);
  ASSERT_NE(child_pte, nullptr);
  EXPECT_NE(parent_pte->frame_number(), child_pte->frame_number());
  EXPECT_TRUE(child_pte->writable());
  EXPECT_FALSE(child_pte->cow());
  EXPECT_GT(h.platform->counters().get(Counter::kCowBreak), 0u);
  // The parent's copy is the sole owner again.
  EXPECT_EQ(h.kernel().cow_refs(parent_pte->frame_number()), 1);
}

TEST(GuestKernelTest, LastOwnerCowBreakRestoresWriteInPlace) {
  KernelHarness h;
  GuestProcess* child = nullptr;
  h.run([](KernelHarness& hh, GuestProcess** out) -> Task<void> {
    *out = co_await hh.kernel().sys_fork(hh.vcpu(), hh.init());
    co_await hh.kernel().mem().activate_process(hh.vcpu(), **out, false);
    co_await hh.kernel().sys_exit(hh.vcpu(), **out);
    co_await hh.kernel().mem().activate_process(hh.vcpu(), hh.init(), false);
    // After the child exits, the parent is the sole owner; a write should
    // flip the PTE writable without allocating a new frame.
    co_await hh.kernel().touch(hh.vcpu(), hh.init(), GuestProcess::kStackBase, true);
  }(h, &child));
  const Pte* pte = h.init().gpt().find_pte(GuestProcess::kStackBase);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->writable());
}

TEST(GuestKernelTest, ChildExitReturnsOnlyPrivateFrames) {
  KernelHarness h;
  const std::uint64_t before = h.container->gpa_frames().allocated();
  h.run([](KernelHarness& hh) -> Task<void> {
    GuestProcess* child = co_await hh.kernel().sys_fork(hh.vcpu(), hh.init());
    co_await hh.kernel().mem().activate_process(hh.vcpu(), *child, false);
    co_await hh.kernel().touch(hh.vcpu(), *child, GuestProcess::kStackBase, true);  // 1 copy
    co_await hh.kernel().sys_exit(hh.vcpu(), *child);
    co_await hh.kernel().mem().activate_process(hh.vcpu(), hh.init(), false);
  }(h));
  // Everything the child owned privately is back; the parent's frames remain.
  EXPECT_EQ(h.container->gpa_frames().allocated(), before);
  EXPECT_EQ(h.kernel().processes().size(), 1u);
}

TEST(GuestKernelTest, ExecRebuildsAddressSpace) {
  KernelHarness h;
  h.run([](KernelHarness& hh) -> Task<void> {
    const std::uint64_t base =
        co_await hh.kernel().sys_mmap(hh.vcpu(), hh.init(), 8 * kPageSize);
    co_await hh.kernel().touch(hh.vcpu(), hh.init(), base, true);
    co_await hh.kernel().sys_exec(hh.vcpu(), hh.init(), /*fresh_pages=*/12);
  }(h));
  // The old mmap VMA is gone; fresh image pages are resident.
  EXPECT_EQ(h.init().vmas().size(), 3u);  // code/stack/kernel
  EXPECT_EQ(h.init().data_frames().size(), 12u);
  EXPECT_GT(h.platform->counters().get(Counter::kProcessExeced), 0u);
}

TEST(GuestKernelTest, FileOpsAllocateAndReleaseKernelPages) {
  KernelHarness h;
  const std::uint64_t before = h.container->gpa_frames().allocated();
  const std::size_t data_before = h.init().data_frames().size();
  h.run([](KernelHarness& hh) -> Task<void> {
    co_await hh.kernel().sys_file_op(hh.vcpu(), hh.init(), 1000, /*fresh=*/5, /*free=*/0);
  }(h));
  EXPECT_EQ(h.init().data_frames().size() - data_before, 5u);
  EXPECT_GE(h.container->gpa_frames().allocated() - before, 5u);
  h.run([](KernelHarness& hh) -> Task<void> {
    co_await hh.kernel().sys_file_op(hh.vcpu(), hh.init(), 1000, /*fresh=*/0, /*free=*/5);
  }(h));
  EXPECT_EQ(h.init().data_frames().size(), data_before);
}

TEST(GuestKernelTest, IoChargesDeviceAndInterrupts) {
  KernelHarness h;
  const CounterSet before = h.platform->counters();
  h.run([](KernelHarness& hh) -> Task<void> {
    co_await hh.kernel().do_io(hh.vcpu(), hh.init(), hh.container->io(), 64 * 1024);
  }(h));
  const CounterSet d = h.platform->counters().delta_since(before);
  EXPECT_EQ(d.get(Counter::kIoRequest), 1u);
  EXPECT_EQ(d.get(Counter::kInterruptInjected), 1u);
  EXPECT_EQ(h.container->io().requests(), 2u);  // +1 from boot
}

TEST(GuestKernelTest, PidsAreUniqueAndLookupWorks) {
  KernelHarness h;
  GuestProcess* a = nullptr;
  GuestProcess* b = nullptr;
  h.run([](KernelHarness& hh, GuestProcess** pa, GuestProcess** pb) -> Task<void> {
    *pa = co_await hh.kernel().sys_fork(hh.vcpu(), hh.init());
    *pb = co_await hh.kernel().sys_fork(hh.vcpu(), hh.init());
  }(h, &a, &b));
  EXPECT_NE(a->pid(), b->pid());
  EXPECT_EQ(h.kernel().process_by_pid(a->pid()), a);
  EXPECT_EQ(h.kernel().process_by_pid(b->pid()), b);
  EXPECT_EQ(h.kernel().process_by_pid(0xdead), nullptr);
}

TEST(GuestKernelTest, FaultSurvivesOomKillDuringHandler) {
  // A second vCPU OOM-kills the process while handle_page_fault waits out
  // the handler cost; the teardown frees the VMA the fault was taken on.
  KernelHarness h;
  Vcpu& killer = h.container->add_vcpu();
  std::uint64_t base = 0;
  h.run([](KernelHarness& hh, std::uint64_t* out) -> Task<void> {
    *out = co_await hh.kernel().sys_mmap(hh.vcpu(), hh.init(), kPageSize);
  }(h, &base));
  const std::uint64_t frames_before = h.container->gpa_frames().allocated();
  const std::size_t data_frames = h.init().data_frames().size();
  ASSERT_GT(data_frames, 0u);

  Simulation& sim = h.platform->sim();
  sim.spawn([](KernelHarness& hh, std::uint64_t gva) -> Task<void> {
    const PageFaultInfo fault{gva, AccessType::kWrite, /*user_mode=*/true, /*protection=*/false};
    co_await hh.kernel().handle_page_fault(hh.vcpu(), hh.init(), fault);
  }(h, base));
  sim.spawn([](KernelHarness& hh, Vcpu& vcpu) -> Task<void> {
    co_await hh.platform->sim().delay(1);
    co_await hh.kernel().oom_kill_process(vcpu, hh.init());
  }(h, killer));
  sim.run();

  EXPECT_TRUE(sim.all_tasks_done());
  EXPECT_TRUE(h.init().oom_killed());
  EXPECT_TRUE(h.init().vmas().empty());
  EXPECT_TRUE(h.init().data_frames().empty());
  // The kill returned every data frame, and the frame the fault allocated
  // after the kill went straight back.
  EXPECT_EQ(h.container->gpa_frames().allocated(), frames_before - data_frames);
}

// The first fresh kernel page a process's file ops allocate.
constexpr std::uint64_t kFirstKernelAlloc = GuestProcess::kKernelBase + (1ull << 20);

bool first_kernel_alloc_mapped(GuestProcess& proc) {
  const Pte* pte = proc.gpt().find_pte(kFirstKernelAlloc);
  return pte != nullptr && pte->present();
}

// Frames allocated before a file op that an OOM kill interrupts. The kill
// returns every data frame; the GPT keeps the table nodes the op added.
struct FrameCount {
  explicit FrameCount(KernelHarness& h)
      : allocated(h.container->gpa_frames().allocated()),
        data_frames(h.init().data_frames().size()),
        gpt_nodes(h.init().gpt().node_count()) {}

  std::uint64_t after_kill(KernelHarness& h) const {
    return allocated - data_frames + (h.init().gpt().node_count() - gpt_nodes);
  }

  std::uint64_t allocated;
  std::uint64_t data_frames;
  std::uint64_t gpt_nodes;
};

// Waits (1 ns steps) until `ready` holds, then OOM-kills the init process
// from `vcpu`.
template <typename Ready>
Task<void> oom_kill_init_when(KernelHarness& h, Vcpu& vcpu, Ready ready) {
  while (!ready(h.init())) {
    co_await h.platform->sim().delay(1);
  }
  co_await h.kernel().oom_kill_process(vcpu, h.init());
}

TEST(GuestKernelTest, FileOpSurvivesOomKillBetweenFreshPages) {
  // A second vCPU OOM-kills the process once the file op has faulted in its
  // first fresh kernel page; the op goes on to record that page and touch
  // the next ones.
  KernelHarness h;
  Vcpu& killer = h.container->add_vcpu();
  const FrameCount before(h);
  ASSERT_GT(before.data_frames, 0u);

  Simulation& sim = h.platform->sim();
  sim.spawn([](KernelHarness& hh) -> Task<void> {
    co_await hh.kernel().sys_file_op(hh.vcpu(), hh.init(), 100, /*fresh=*/4, /*free=*/0);
  }(h));
  sim.spawn(oom_kill_init_when(h, killer, first_kernel_alloc_mapped));
  sim.run();

  EXPECT_TRUE(sim.all_tasks_done());
  EXPECT_TRUE(h.init().oom_killed());
  EXPECT_TRUE(h.init().data_frames().empty());
  // The kill returned every data frame, the fresh kernel page included.
  EXPECT_EQ(h.container->gpa_frames().allocated(), before.after_kill(h));
}

TEST(GuestKernelTest, FileOpSurvivesOomKillBetweenFreedPages) {
  // A second vCPU OOM-kills the process while the file op unmaps the first
  // of its outstanding kernel pages; the teardown frees that page's frame
  // and takes the frame map before the op resumes.
  KernelHarness h;
  h.run([](KernelHarness& hh) -> Task<void> {
    co_await hh.kernel().sys_file_op(hh.vcpu(), hh.init(), 100, /*fresh=*/3, /*free=*/0);
  }(h));
  ASSERT_TRUE(first_kernel_alloc_mapped(h.init()));
  Vcpu& killer = h.container->add_vcpu();
  const FrameCount before(h);

  Simulation& sim = h.platform->sim();
  sim.spawn([](KernelHarness& hh) -> Task<void> {
    co_await hh.kernel().sys_file_op(hh.vcpu(), hh.init(), 100, /*fresh=*/0, /*free=*/3);
  }(h));
  sim.spawn(oom_kill_init_when(
      h, killer, [](GuestProcess& proc) { return !first_kernel_alloc_mapped(proc); }));
  sim.run();

  EXPECT_TRUE(sim.all_tasks_done());
  EXPECT_TRUE(h.init().oom_killed());
  EXPECT_TRUE(h.init().data_frames().empty());
  // Every data frame went back exactly once.
  EXPECT_EQ(h.container->gpa_frames().allocated(), before.after_kill(h));
}

}  // namespace
}  // namespace pvm
