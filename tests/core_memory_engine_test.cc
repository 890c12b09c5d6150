// Unit tests for PVM's shadow-paging engine: dual SPT isolation, gpa_map
// (memslot) stability, fill/zap/bulk-zap semantics, reverse-map hygiene,
// activation TLB policy, and the coarse/fine lock split.

#include <gtest/gtest.h>

#include "src/core/memory_engine.h"

namespace pvm {
namespace {

struct EngineHarness {
  explicit EngineHarness(bool prefault = true, bool pcid = true, bool fine = true,
                         bool dual = true)
      : frames("l1", 1u << 20) {
    PvmMemoryEngine::Options options;
    options.prefault = prefault;
    options.pcid_mapping = pcid;
    options.fine_grained_locks = fine;
    options.dual_spt = dual;
    engine = std::make_unique<PvmMemoryEngine>(sim, costs, counters, frames, "eng", options);
  }

  void run(Task<void> task) {
    sim.spawn(std::move(task));
    sim.run();
    ASSERT_TRUE(sim.all_tasks_done());
  }

  Simulation sim;
  CostModel costs;
  CounterSet counters;
  FrameAllocator frames;
  Tlb tlb;
  std::unique_ptr<PvmMemoryEngine> engine;
};

Pte user_leaf(std::uint64_t gfn) { return Pte::make(gfn, PteFlags::rw_user()); }

TEST(MemoryEngineTest, DualSptKeepsUserAndKernelSeparate) {
  EngineHarness h;
  h.engine->create_process(1);
  EXPECT_NE(&h.engine->spt(1, true), &h.engine->spt(1, false));

  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x1000, /*kernel_ring=*/false, user_leaf(10), false);
  }(h));
  EXPECT_EQ(h.engine->spt_leaves(1, false), 1u);
  EXPECT_EQ(h.engine->spt_leaves(1, true), 0u);  // kernel SPT untouched
}

TEST(MemoryEngineTest, SingleSptModeSharesTable) {
  EngineHarness h(true, true, true, /*dual=*/false);
  h.engine->create_process(1);
  EXPECT_EQ(&h.engine->spt(1, true), &h.engine->spt(1, false));
}

TEST(MemoryEngineTest, FillTranslatesThroughGpaMap) {
  EngineHarness h;
  h.engine->create_process(1);
  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x2000, false, user_leaf(77), false);
  }(h));
  const Pte* spt_leaf = h.engine->spt(1, false).find_pte(0x2000);
  ASSERT_NE(spt_leaf, nullptr);
  const Pte* slot = h.engine->gpa_map().find_pte(77ull << kPageShift);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(spt_leaf->frame_number(), slot->frame_number());
  // The SPT inherits the guest leaf's permissions.
  EXPECT_TRUE(spt_leaf->user());
  EXPECT_TRUE(spt_leaf->writable());
}

TEST(MemoryEngineTest, GpaMapIsStableAcrossProcesses) {
  // Two processes mapping the same guest-physical frame (shared memory) get
  // the same L1 backing frame — memslots are per VM, not per process.
  EngineHarness h;
  h.engine->create_process(1);
  h.engine->create_process(2);
  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x5000, false, user_leaf(123), false);
    co_await hh.engine->fill_spt(2, 0x9000, false, user_leaf(123), false);
  }(h));
  EXPECT_EQ(h.engine->spt(1, false).find_pte(0x5000)->frame_number(),
            h.engine->spt(2, false).find_pte(0x9000)->frame_number());
  // Only one backing frame was allocated for the shared gfn (plus table
  // frames for the SPTs themselves).
  const Pte* slot = h.engine->gpa_map().find_pte(123ull << kPageShift);
  ASSERT_NE(slot, nullptr);
}

TEST(MemoryEngineTest, ReadOnlyLeafStaysReadOnlyInSpt) {
  EngineHarness h;
  h.engine->create_process(1);
  PteFlags ro = PteFlags::ro_user();
  ro.cow = true;
  h.run([](EngineHarness& hh, Pte leaf) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x3000, false, leaf, false);
  }(h, Pte::make(5, ro)));
  const Pte* spt_leaf = h.engine->spt(1, false).find_pte(0x3000);
  ASSERT_NE(spt_leaf, nullptr);
  EXPECT_FALSE(spt_leaf->writable());
}

TEST(MemoryEngineTest, ZapRemovesBothRingsAndTlbEntries) {
  EngineHarness h;
  h.engine->create_process(1);
  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x4000, false, user_leaf(8), false);
    co_await hh.engine->fill_spt(1, 0x4000, true, user_leaf(8), false);
  }(h));
  // Simulate cached translations under the mapped PCIDs.
  const std::uint16_t user_pcid = h.engine->pcid_mapper().map(1, false).hw_pcid;
  h.tlb.insert(9, user_pcid, page_number(0x4000), user_leaf(8));

  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->zap_gva(1, 0x4000, hh.tlb, 9);
  }(h));
  const Pte* zapped = h.engine->spt(1, false).find_pte(0x4000);
  EXPECT_TRUE(zapped == nullptr || !zapped->present());
  EXPECT_EQ(h.engine->spt_leaves(1, false), 0u);
  EXPECT_EQ(h.engine->spt_leaves(1, true), 0u);
  EXPECT_FALSE(h.tlb.lookup(9, user_pcid, page_number(0x4000)).hit);
}

TEST(MemoryEngineTest, EmulateStoreClearZaps) {
  EngineHarness h;
  h.engine->create_process(1);
  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x6000, false, user_leaf(12), false);
    co_await hh.engine->emulate_gpt_store(1, 0x6000, GptStoreKind::kClear, hh.tlb, 9, 100);
  }(h));
  EXPECT_EQ(h.engine->spt_leaves(1, false), 0u);
  EXPECT_EQ(h.counters.get(Counter::kGptWriteProtectTrap), 1u);
}

TEST(MemoryEngineTest, EmulateStoreInstallDoesNotFill) {
  // Installs synchronize lazily (prefault or the next fault does the fill).
  EngineHarness h;
  h.engine->create_process(1);
  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->emulate_gpt_store(1, 0x7000, GptStoreKind::kInstall, hh.tlb, 9, 100);
  }(h));
  EXPECT_EQ(h.engine->spt_leaves(1, false), 0u);
  EXPECT_EQ(h.engine->spt_leaves(1, true), 0u);
}

TEST(MemoryEngineTest, BulkZapClearsEverything) {
  EngineHarness h;
  h.engine->create_process(1);
  h.run([](EngineHarness& hh) -> Task<void> {
    for (std::uint64_t i = 0; i < 32; ++i) {
      co_await hh.engine->fill_spt(1, 0x100000 + i * kPageSize, false, user_leaf(100 + i),
                                   false);
    }
    co_await hh.engine->bulk_zap(1, hh.tlb, 9);
  }(h));
  EXPECT_EQ(h.engine->spt_leaves(1, false), 0u);
  EXPECT_EQ(h.engine->spt_leaves(1, true), 0u);
}

TEST(MemoryEngineTest, ActivateWithPcidMappingAvoidsFlush) {
  EngineHarness h;
  h.engine->create_process(1);
  h.tlb.insert(9, PcidMapper::kUserBase, 0x10, user_leaf(1));
  h.run([](EngineHarness& hh) -> Task<void> {
    const std::uint16_t pcid = co_await hh.engine->activate(1, false, hh.tlb, 9);
    EXPECT_GE(pcid, PcidMapper::kUserBase);
  }(h));
  EXPECT_EQ(h.counters.get(Counter::kTlbFlushAvoided), 1u);
  EXPECT_EQ(h.tlb.stats().flush_vpid, 0u);
}

TEST(MemoryEngineTest, ActivateWithoutPcidMappingFlushesVpid) {
  EngineHarness h(true, /*pcid=*/false, true, true);
  h.engine->create_process(1);
  h.tlb.insert(9, 0, 0x10, user_leaf(1));
  h.run([](EngineHarness& hh) -> Task<void> {
    const std::uint16_t pcid = co_await hh.engine->activate(1, false, hh.tlb, 9);
    EXPECT_EQ(pcid, 0u);
  }(h));
  EXPECT_EQ(h.counters.get(Counter::kTlbFlushAll), 1u);
  EXPECT_FALSE(h.tlb.lookup(9, 0, 0x10).hit);
}

TEST(MemoryEngineTest, DestroyProcessDropsShadowStateAndFrames) {
  EngineHarness h;
  h.engine->create_process(1);
  const std::uint64_t before = h.frames.allocated();
  h.run([](EngineHarness& hh) -> Task<void> {
    for (std::uint64_t i = 0; i < 8; ++i) {
      co_await hh.engine->fill_spt(1, 0x200000 + i * kPageSize, false, user_leaf(300 + i),
                                   false);
    }
  }(h));
  EXPECT_GT(h.frames.allocated(), before);
  h.engine->destroy_process(1, h.tlb, 9);
  EXPECT_THROW(h.engine->spt(1, false), std::logic_error);
  // Note: gpa_map backing frames persist (memslots outlive processes); only
  // the SPT table frames are reclaimed.
}

TEST(MemoryEngineTest, CoarseModeUsesOneLock) {
  EngineHarness h(true, true, /*fine=*/false, true);
  SptLockSet& locks = h.engine->locks();
  EXPECT_EQ(&locks.meta_lock(), &locks.mmu_lock());
  EXPECT_EQ(&locks.pt_lock(42), &locks.mmu_lock());
  EXPECT_EQ(&locks.rmap_lock(7), &locks.mmu_lock());
  EXPECT_FALSE(locks.fine_grained());
}

TEST(MemoryEngineTest, FineModeSplitsLocks) {
  EngineHarness h;
  SptLockSet& locks = h.engine->locks();
  EXPECT_NE(&locks.meta_lock(), &locks.mmu_lock());
  EXPECT_NE(&locks.pt_lock(42), &locks.meta_lock());
  EXPECT_NE(&locks.pt_lock(42), &locks.pt_lock(43));
  EXPECT_EQ(&locks.pt_lock(42), &locks.pt_lock(42));  // stable per key
  EXPECT_NE(&locks.rmap_lock(7), &locks.rmap_lock(8));
  EXPECT_EQ(locks.pt_lock_count(), 2u);
  EXPECT_EQ(locks.rmap_lock_count(), 2u);
}

TEST(MemoryEngineTest, PrefaultAccountingDistinguishesFills) {
  EngineHarness h;
  h.engine->create_process(1);
  h.run([](EngineHarness& hh) -> Task<void> {
    co_await hh.engine->fill_spt(1, 0x1000, false, user_leaf(1), /*is_prefault=*/true);
    co_await hh.engine->fill_spt(1, 0x2000, false, user_leaf(2), /*is_prefault=*/false);
  }(h));
  EXPECT_EQ(h.counters.get(Counter::kSptEntryFilled), 2u);
  EXPECT_EQ(h.counters.get(Counter::kPrefaultFill), 1u);
}

TEST(MemoryEngineTest, ConcurrentFillsSerializeOnlyInCoarseMode) {
  auto run_mode = [](bool fine) {
    EngineHarness h(true, true, fine, true);
    for (std::uint64_t pid = 1; pid <= 8; ++pid) {
      h.engine->create_process(pid);
      h.sim.spawn([](EngineHarness& hh, std::uint64_t id) -> Task<void> {
        for (std::uint64_t i = 0; i < 64; ++i) {
          co_await hh.engine->fill_spt(id, 0x100000 * id + i * kPageSize, false,
                                       user_leaf(1000 * id + i), false);
        }
      }(h, pid));
    }
    h.sim.run();
    return h.sim.now();
  };
  const SimTime coarse = run_mode(false);
  const SimTime fine = run_mode(true);
  EXPECT_LT(fine, coarse);  // fine-grained locks let distinct pages proceed
}

}  // namespace
}  // namespace pvm
