// Mutation tests for the SPT coherence oracle: inject each class of
// corruption the oracle claims to detect and assert it actually reports it.
// A test oracle that silently accepts broken state is worse than none — these
// tests are what let simcheck's green sweeps mean something.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/memory_engine.h"

namespace pvm {
namespace {

struct OracleHarness {
  OracleHarness() : frames("l1", 1u << 20), guest_pt("gpt", nullptr) {
    PvmMemoryEngine::Options options;
    engine = std::make_unique<PvmMemoryEngine>(sim, costs, counters, frames, "eng", options);
  }

  void run(Task<void> task) {
    sim.spawn(std::move(task));
    sim.run();
    ASSERT_TRUE(sim.all_tasks_done());
  }

  // Maps `gva` in the guest PT and mirrors it into the shadow via fill_spt,
  // as the fault path would.
  void map_and_fill(std::uint64_t pid, std::uint64_t gva, std::uint64_t gfn,
                    bool kernel_ring = false, bool writable = true) {
    PteFlags flags = PteFlags::rw_user();
    flags.writable = writable;
    guest_pt.map(gva, gfn, flags);
    run([](OracleHarness& h, std::uint64_t p, std::uint64_t va, bool ring) -> Task<void> {
      co_await h.engine->fill_spt(p, va, ring, *h.guest_pt.find_pte(va), false);
    }(*this, pid, gva, kernel_ring));
  }

  Simulation sim;
  CostModel costs;
  CounterSet counters;
  FrameAllocator frames;
  Tlb tlb;
  PageTable guest_pt;
  std::unique_ptr<PvmMemoryEngine> engine;
};

TEST(SptOracleTest, CleanStatePassesStructuralAndStrictChecks) {
  OracleHarness h;
  h.engine->enable_coherence_oracle();
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);
  h.map_and_fill(1, 0x2000, 11);
  h.map_and_fill(1, 0x3000, 12, /*kernel_ring=*/true);

  EXPECT_TRUE(h.engine->check_coherence(/*strict=*/false).empty());
  EXPECT_TRUE(h.engine->check_coherence(/*strict=*/true).empty());
  EXPECT_NO_THROW(h.engine->verify_coherence(true));
}

TEST(SptOracleTest, CatchesCorruptedShadowLeaf) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);

  ASSERT_TRUE(h.engine->debug_corrupt_spt_leaf(1, false, 0x1000));
  const std::vector<std::string> violations = h.engine->check_coherence(false);
  EXPECT_FALSE(violations.empty());
  EXPECT_THROW(h.engine->verify_coherence(false), SptCoherenceError);
}

TEST(SptOracleTest, CatchesMissingRmapEntry) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);

  ASSERT_TRUE(h.engine->debug_drop_rmap_entry(1, false, 0x1000));
  EXPECT_FALSE(h.engine->check_coherence(false).empty());
  EXPECT_THROW(h.engine->verify_coherence(false), SptCoherenceError);
}

TEST(SptOracleTest, CatchesDuplicatedRmapEntry) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);

  ASSERT_TRUE(h.engine->debug_duplicate_rmap_entry(1, false, 0x1000));
  EXPECT_FALSE(h.engine->check_coherence(false).empty());
  EXPECT_THROW(h.engine->verify_coherence(false), SptCoherenceError);
}

TEST(SptOracleTest, CatchesKernelLeafInUserSpt) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);

  ASSERT_TRUE(h.engine->debug_install_kernel_leaf_in_user_spt(1, kGuestKernelHalfBase));
  EXPECT_FALSE(h.engine->check_coherence(false).empty());
  EXPECT_THROW(h.engine->verify_coherence(false), SptCoherenceError);
}

TEST(SptOracleTest, StrictCheckCatchesStaleLeafAfterGuestUnmap) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);

  // The guest dropped the mapping but no zap followed: structurally the
  // shadow state is still self-consistent, only the guest-PT agreement
  // (strict) check can see the leak.
  ASSERT_TRUE(h.guest_pt.unmap(0x1000));
  EXPECT_TRUE(h.engine->check_coherence(/*strict=*/false).empty());
  EXPECT_FALSE(h.engine->check_coherence(/*strict=*/true).empty());
  EXPECT_THROW(h.engine->verify_coherence(true), SptCoherenceError);
}

TEST(SptOracleTest, StrictCheckCatchesWritableLeafOverReadOnlyGuestPte) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10, /*kernel_ring=*/false, /*writable=*/true);

  // COW arm without the zap: the guest PTE went read-only but the shadow
  // still permits writes — the exact bug class write-protect traps exist to
  // prevent.
  ASSERT_TRUE(h.guest_pt.update_pte(0x1000, [](Pte& pte) {
    PteFlags flags = pte.flags();
    flags.writable = false;
    pte = Pte::make(pte.frame_number(), flags);
  }));
  EXPECT_TRUE(h.engine->check_coherence(false).empty());
  EXPECT_FALSE(h.engine->check_coherence(true).empty());
}

TEST(SptOracleTest, AutoCheckThrowsFromNextMutation) {
  OracleHarness h;
  h.engine->enable_coherence_oracle();
  h.engine->create_process(1, &h.guest_pt);
  h.map_and_fill(1, 0x1000, 10);
  h.map_and_fill(1, 0x2000, 11);

  // Corrupt behind the oracle's back, then run any mutator: its post-mutation
  // auto-check must surface the corruption through the coroutine's exception
  // path (how simcheck failures reach the sweep driver).
  ASSERT_TRUE(h.engine->debug_corrupt_spt_leaf(1, false, 0x1000));
  h.sim.spawn([](OracleHarness& hh) -> Task<void> {
    co_await hh.engine->zap_gva(1, 0x2000, hh.tlb, 7);
  }(h));
  EXPECT_THROW(h.sim.run(), SptCoherenceError);
}

TEST(SptOracleTest, DebugHooksRejectMissingLeaves) {
  OracleHarness h;
  h.engine->create_process(1, &h.guest_pt);

  EXPECT_FALSE(h.engine->debug_corrupt_spt_leaf(1, false, 0x9000));
  EXPECT_FALSE(h.engine->debug_drop_rmap_entry(1, false, 0x9000));
  EXPECT_FALSE(h.engine->debug_duplicate_rmap_entry(1, false, 0x9000));
}

}  // namespace
}  // namespace pvm
