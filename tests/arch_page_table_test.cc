// Unit and property tests for the 4-level page table.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/arch/page_table.h"
#include "src/sim/random.h"

namespace pvm {
namespace {

TEST(PageTableTest, EmptyTableWalksMissAtRoot) {
  PageTable pt("test", nullptr);
  const WalkResult walk = pt.walk(0x1000, AccessType::kRead, true);
  EXPECT_FALSE(walk.present);
  EXPECT_EQ(walk.missing_level, kPageTableLevels);
  EXPECT_EQ(walk.levels_walked, 1);
}

TEST(PageTableTest, MapThenWalkHits) {
  PageTable pt("test", nullptr);
  const MapResult map = pt.map(0x7f0000001000, 0x1234, PteFlags::rw_user());
  EXPECT_EQ(map.nodes_allocated, 3);   // PDPT, PD, PT under the root
  EXPECT_EQ(map.entries_written, 4);   // 3 intermediate installs + leaf
  EXPECT_FALSE(map.replaced);

  const WalkResult walk = pt.walk(0x7f0000001000, AccessType::kWrite, true);
  EXPECT_TRUE(walk.present);
  EXPECT_TRUE(walk.permission_ok);
  EXPECT_EQ(walk.pte.frame_number(), 0x1234u);
  EXPECT_EQ(walk.levels_walked, 4);
}

TEST(PageTableTest, SecondMapInSameLeafNodeWritesOneEntry) {
  PageTable pt("test", nullptr);
  pt.map(0x1000, 1, PteFlags::rw_user());
  const MapResult second = pt.map(0x2000, 2, PteFlags::rw_user());
  EXPECT_EQ(second.nodes_allocated, 0);
  EXPECT_EQ(second.entries_written, 1);
}

TEST(PageTableTest, RemapReportsReplaced) {
  PageTable pt("test", nullptr);
  pt.map(0x1000, 1, PteFlags::rw_user());
  const MapResult remap = pt.map(0x1000, 2, PteFlags::rw_user());
  EXPECT_TRUE(remap.replaced);
  EXPECT_EQ(pt.present_leaf_count(), 1u);
  EXPECT_EQ(pt.find_pte(0x1000)->frame_number(), 2u);
}

TEST(PageTableTest, PermissionChecks) {
  PageTable pt("test", nullptr);
  pt.map(0x1000, 1, PteFlags::ro_user());
  pt.map(0x2000, 2, PteFlags::rw_kernel());

  EXPECT_TRUE(pt.walk(0x1000, AccessType::kRead, true).permission_ok);
  EXPECT_FALSE(pt.walk(0x1000, AccessType::kWrite, true).permission_ok);
  EXPECT_FALSE(pt.walk(0x2000, AccessType::kRead, true).permission_ok);   // user hits kernel page
  EXPECT_TRUE(pt.walk(0x2000, AccessType::kWrite, false).permission_ok);  // kernel mode ok

  PteFlags nx = PteFlags::rw_user();
  nx.no_execute = true;
  pt.map(0x3000, 3, nx);
  EXPECT_FALSE(pt.walk(0x3000, AccessType::kExecute, true).permission_ok);
  EXPECT_TRUE(pt.walk(0x3000, AccessType::kRead, true).permission_ok);
}

TEST(PageTableTest, UnmapRemovesLeafOnly) {
  PageTable pt("test", nullptr);
  pt.map(0x1000, 1, PteFlags::rw_user());
  pt.map(0x2000, 2, PteFlags::rw_user());
  EXPECT_TRUE(pt.unmap(0x1000));
  EXPECT_FALSE(pt.unmap(0x1000));
  EXPECT_FALSE(pt.walk(0x1000, AccessType::kRead, true).present);
  EXPECT_TRUE(pt.walk(0x2000, AccessType::kRead, true).present);
  // Intermediate nodes are retained.
  const MapResult remap = pt.map(0x1000, 3, PteFlags::rw_user());
  EXPECT_EQ(remap.nodes_allocated, 0);
}

TEST(PageTableTest, UpdatePteMutatesInPlace) {
  PageTable pt("test", nullptr);
  pt.map(0x1000, 1, PteFlags::rw_user());
  std::uint64_t frame = 0;
  EXPECT_TRUE(pt.update_pte(
      0x1000, [](Pte& pte) { pte.set_writable(false); }, &frame));
  EXPECT_FALSE(pt.walk(0x1000, AccessType::kWrite, true).permission_ok);
  EXPECT_TRUE(pt.owns_table_frame(frame));
  EXPECT_FALSE(pt.update_pte(0x999000, [](Pte&) {}));
}

TEST(PageTableTest, ForEachLeafVisitsAllMappings) {
  PageTable pt("test", nullptr);
  std::map<std::uint64_t, std::uint64_t> expected;
  Xoshiro256 rng(42);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t va = rng.next_below(1ull << 40) & ~kPageMask;
    const std::uint64_t frame = rng.next_below(1ull << 30);
    pt.map(va, frame, PteFlags::rw_user());
    expected[va] = frame;
  }
  std::map<std::uint64_t, std::uint64_t> seen;
  pt.for_each_leaf([&](std::uint64_t va, const Pte& pte) { seen[va] = pte.frame_number(); });
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(pt.present_leaf_count(), expected.size());
}

TEST(PageTableTest, ForEachLeafSignExtendsKernelHalfAddresses) {
  PageTable pt("test", nullptr);
  pt.map(0x7fffffffe000, 1, PteFlags::rw_user());
  pt.map(0xffff800000003000, 2, PteFlags::rw_kernel());
  pt.map(0xffffffffffe00000, 3, PteFlags::rw_kernel());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
  pt.for_each_leaf([&](std::uint64_t va, const Pte& pte) {
    seen.emplace_back(va, pte.frame_number());
  });
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {0x7fffffffe000, 1}, {0xffff800000003000, 2}, {0xffffffffffe00000, 3}};
  EXPECT_EQ(seen, expected);
  // Every reported address finds its leaf again.
  for (const auto& [va, frame] : seen) {
    ASSERT_NE(pt.find_pte(va), nullptr);
    EXPECT_EQ(pt.find_pte(va)->frame_number(), frame);
  }
}

TEST(PageTableTest, TableFramesComeFromAllocator) {
  FrameAllocator alloc("guest", 4096);
  PageTable pt("gpt", &alloc);
  EXPECT_EQ(alloc.allocated(), 1u);  // root
  pt.map(0x1000, 7, PteFlags::rw_user());
  EXPECT_EQ(alloc.allocated(), 4u);  // root + 3 intermediates
  EXPECT_EQ(pt.node_count(), 4u);
}

TEST(PageTableTest, ClearReleasesAllButRoot) {
  FrameAllocator alloc("guest", 4096);
  PageTable pt("gpt", &alloc);
  for (std::uint64_t va = 0; va < 64 * kPageSize; va += kPageSize) {
    pt.map(va, va >> kPageShift, PteFlags::rw_user());
  }
  pt.clear();
  EXPECT_EQ(pt.node_count(), 1u);
  EXPECT_EQ(pt.present_leaf_count(), 0u);
  EXPECT_EQ(alloc.allocated(), 1u);
  EXPECT_FALSE(pt.walk(0, AccessType::kRead, true).present);
  // Table is usable again after clear.
  pt.map(0x5000, 9, PteFlags::rw_user());
  EXPECT_TRUE(pt.walk(0x5000, AccessType::kRead, true).present);
}

TEST(PageTableTest, DestructorReturnsFramesToAllocator) {
  FrameAllocator alloc("guest", 4096);
  {
    PageTable pt("gpt", &alloc);
    pt.map(0x1000, 1, PteFlags::rw_user());
    EXPECT_GT(alloc.allocated(), 0u);
  }
  EXPECT_EQ(alloc.allocated(), 0u);
}

TEST(PageTableTest, WalkReportsNodeFrames) {
  PageTable pt("gpt", nullptr);
  pt.map(0x1000, 1, PteFlags::rw_user());
  const WalkResult walk = pt.walk(0x1000, AccessType::kRead, true);
  ASSERT_EQ(walk.levels_walked, 4);
  EXPECT_EQ(walk.node_frames[0], pt.root_frame());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pt.owns_table_frame(walk.node_frames[i]));
  }
}

TEST(PteTest, RoundTripFlags) {
  PteFlags flags;
  flags.present = true;
  flags.writable = true;
  flags.user = true;
  flags.global = true;
  flags.cow = true;
  flags.shadow_wp = true;
  flags.no_execute = true;
  const Pte pte = Pte::make(0xabcdef, flags);
  EXPECT_EQ(pte.frame_number(), 0xabcdefull);
  const PteFlags out = pte.flags();
  EXPECT_TRUE(out.present && out.writable && out.user && out.global && out.cow &&
              out.shadow_wp && out.no_execute);
  EXPECT_FALSE(out.accessed);
  EXPECT_FALSE(out.dirty);
}

TEST(FrameAllocatorTest, ExhaustionAndReuse) {
  FrameAllocator alloc("tiny", 2);
  const auto a = alloc.allocate();
  const auto b = alloc.allocate();
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(alloc.allocate().has_value());
  EXPECT_THROW(alloc.allocate_or_throw(), std::runtime_error);
  alloc.free(*a);
  const auto c = alloc.allocate();
  ASSERT_TRUE(c);
  EXPECT_EQ(*c, *a);
}

// Property sweep: map a batch of random pages, then every mapped page walks
// to its frame and every unmapped probe misses, across several table shapes.
class PageTablePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageTablePropertyTest, MappedPagesTranslateUnmappedMiss) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  PageTable pt("prop", nullptr);
  std::map<std::uint64_t, std::uint64_t> truth;
  const int count = 200 + static_cast<int>(seed % 300);
  for (int i = 0; i < count; ++i) {
    const std::uint64_t va = (rng.next_below(1ull << 47)) & ~kPageMask;
    const std::uint64_t frame = rng.next_below(1ull << 35);
    pt.map(va, frame, PteFlags::rw_user());
    truth[va] = frame;
  }
  for (const auto& [va, frame] : truth) {
    const WalkResult walk = pt.walk(va, AccessType::kRead, true);
    ASSERT_TRUE(walk.present) << "va=" << va;
    ASSERT_EQ(walk.pte.frame_number(), frame);
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t va = (rng.next_below(1ull << 47)) & ~kPageMask;
    if (truth.count(va) == 0) {
      ASSERT_FALSE(pt.walk(va, AccessType::kRead, true).present);
    }
  }
  // Unmap half, verify the other half still translates.
  std::size_t index = 0;
  for (const auto& [va, frame] : truth) {
    if (index++ % 2 == 0) {
      ASSERT_TRUE(pt.unmap(va));
    }
  }
  index = 0;
  for (const auto& [va, frame] : truth) {
    const bool removed = index++ % 2 == 0;
    ASSERT_EQ(pt.walk(va, AccessType::kRead, true).present, !removed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace pvm
