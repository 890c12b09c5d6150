// Unit tests for the PCID mapping optimization (§3.3.2): ring-separated
// ranges 32-47 / 48-63, stable mappings, LRU stealing, release semantics,
// and a differential run against a std::list LRU model.

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "src/core/pcid_mapper.h"
#include "src/sim/random.h"

namespace pvm {
namespace {

TEST(PcidMapperTest, KernelAndUserRangesAreDisjoint) {
  PcidMapper mapper;
  const auto kernel = mapper.map(1, true);
  const auto user = mapper.map(1, false);
  EXPECT_GE(kernel.hw_pcid, PcidMapper::kKernelBase);
  EXPECT_LT(kernel.hw_pcid, PcidMapper::kKernelBase + PcidMapper::kSlotsPerRing);
  EXPECT_GE(user.hw_pcid, PcidMapper::kUserBase);
  EXPECT_LT(user.hw_pcid, PcidMapper::kUserBase + PcidMapper::kSlotsPerRing);
}

TEST(PcidMapperTest, MappingIsStableForAProcess) {
  PcidMapper mapper;
  const auto first = mapper.map(7, true);
  for (int i = 0; i < 100; ++i) {
    const auto again = mapper.map(7, true);
    EXPECT_EQ(again.hw_pcid, first.hw_pcid);
    EXPECT_FALSE(again.stolen);
  }
  EXPECT_EQ(mapper.steals(), 0u);
}

TEST(PcidMapperTest, SixteenProcessesGetDistinctSlots) {
  PcidMapper mapper;
  std::set<std::uint16_t> slots;
  for (std::uint64_t pid = 1; pid <= 16; ++pid) {
    slots.insert(mapper.map(pid, false).hw_pcid);
  }
  EXPECT_EQ(slots.size(), 16u);
  EXPECT_EQ(mapper.steals(), 0u);
}

TEST(PcidMapperTest, SeventeenthProcessStealsLru) {
  PcidMapper mapper;
  for (std::uint64_t pid = 1; pid <= 16; ++pid) {
    mapper.map(pid, false);
  }
  // Touch everyone except pid 3 so pid 3 becomes the LRU victim.
  for (std::uint64_t pid = 1; pid <= 16; ++pid) {
    if (pid != 3) {
      mapper.map(pid, false);
    }
  }
  const auto fresh = mapper.map(99, false);
  EXPECT_TRUE(fresh.stolen);
  EXPECT_EQ(mapper.steals(), 1u);
  const std::uint16_t stolen_slot = fresh.hw_pcid;
  // pid 3 lost its slot: remapping it steals another (the new LRU).
  const auto remapped = mapper.map(3, false);
  EXPECT_TRUE(remapped.stolen);
  EXPECT_NE(remapped.hw_pcid, stolen_slot);
}

TEST(PcidMapperTest, ReleaseFreesSlotWithoutSteal) {
  PcidMapper mapper;
  for (std::uint64_t pid = 1; pid <= 16; ++pid) {
    mapper.map(pid, true);
  }
  const std::uint16_t freed = mapper.map(5, true).hw_pcid;
  mapper.release(5);
  const auto next = mapper.map(100, true);
  EXPECT_FALSE(next.stolen);
  EXPECT_EQ(next.hw_pcid, freed);  // the freed slot is reused
  EXPECT_EQ(mapper.steals(), 0u);
}

TEST(PcidMapperTest, ReleaseDropsBothRings) {
  PcidMapper mapper;
  mapper.map(9, true);
  mapper.map(9, false);
  EXPECT_EQ(mapper.live_mappings(), 2u);
  mapper.release(9);
  EXPECT_EQ(mapper.live_mappings(), 0u);
}

TEST(PcidMapperTest, RingsStealIndependently) {
  PcidMapper mapper;
  for (std::uint64_t pid = 1; pid <= 17; ++pid) {
    mapper.map(pid, true);  // 17th steals in the kernel ring
  }
  EXPECT_EQ(mapper.steals(), 1u);
  // The user ring is untouched: no steal there.
  const auto user = mapper.map(200, false);
  EXPECT_FALSE(user.stolen);
  EXPECT_EQ(mapper.steals(), 1u);
}

TEST(PcidMapperTest, NoSlotCollisionsUnderChurn) {
  // Churn maps and releases, shadowing the mapper's state; at every step the
  // live pids of a ring must hold distinct hardware PCIDs in range.
  PcidMapper mapper;
  std::map<std::uint64_t, std::uint16_t> shadow_kernel;  // pid -> slot
  for (std::uint64_t round = 0; round < 400; ++round) {
    const std::uint64_t pid = (round * 7) % 40 + 1;
    if (round % 5 == 4) {
      mapper.release(pid);
      shadow_kernel.erase(pid);
    } else {
      const auto mapping = mapper.map(pid, /*kernel_ring=*/true);
      ASSERT_GE(mapping.hw_pcid, PcidMapper::kKernelBase);
      ASSERT_LT(mapping.hw_pcid, PcidMapper::kKernelBase + PcidMapper::kSlotsPerRing);
      if (mapping.stolen) {
        // Some other pid lost this slot; remove it from the shadow.
        std::erase_if(shadow_kernel, [&](const auto& kv) {
          return kv.first != pid && kv.second == mapping.hw_pcid;
        });
      }
      shadow_kernel[pid] = mapping.hw_pcid;
      // Distinctness across live mappings.
      std::set<std::uint16_t> slots;
      for (const auto& [p, slot] : shadow_kernel) {
        ASSERT_TRUE(slots.insert(slot).second)
            << "slot " << slot << " double-assigned at round " << round;
      }
    }
    ASSERT_LE(mapper.live_mappings(), 32u);
  }
}

// The textbook LRU the slot arrays must reproduce: a recency list, a pid
// index, a LIFO stack of released slots, then fresh slots in order.
class ListLruPcidModel {
 public:
  PcidMapper::Mapping map(std::uint64_t pid, bool kernel_ring) {
    Ring& ring = kernel_ring ? kernel_ : user_;
    const std::uint16_t base = kernel_ring ? PcidMapper::kKernelBase : PcidMapper::kUserBase;
    if (auto it = ring.by_pid.find(pid); it != ring.by_pid.end()) {
      ring.lru.splice(ring.lru.end(), ring.lru, it->second.lru_pos);
      return {it->second.hw_pcid, false};
    }
    std::uint16_t slot = 0;
    bool stolen = false;
    if (!ring.free_slots.empty()) {
      slot = ring.free_slots.back();
      ring.free_slots.pop_back();
    } else if (ring.next_fresh < PcidMapper::kSlotsPerRing) {
      slot = static_cast<std::uint16_t>(base + ring.next_fresh++);
    } else {
      const std::uint64_t victim = ring.lru.front();
      ring.lru.pop_front();
      slot = ring.by_pid.at(victim).hw_pcid;
      ring.by_pid.erase(victim);
      stolen = true;
      ++steals_;
    }
    ring.lru.push_back(pid);
    ring.by_pid[pid] = Entry{slot, std::prev(ring.lru.end())};
    return {slot, stolen};
  }

  void release(std::uint64_t pid) {
    for (Ring* ring : {&kernel_, &user_}) {
      if (auto it = ring->by_pid.find(pid); it != ring->by_pid.end()) {
        ring->free_slots.push_back(it->second.hw_pcid);
        ring->lru.erase(it->second.lru_pos);
        ring->by_pid.erase(it);
      }
    }
  }

  std::uint64_t steals() const { return steals_; }
  std::size_t live_mappings() const { return kernel_.by_pid.size() + user_.by_pid.size(); }

 private:
  struct Entry {
    std::uint16_t hw_pcid;
    std::list<std::uint64_t>::iterator lru_pos;
  };
  struct Ring {
    std::map<std::uint64_t, Entry> by_pid;
    std::list<std::uint64_t> lru;
    std::vector<std::uint16_t> free_slots;
    std::uint16_t next_fresh = 0;
  };
  Ring kernel_;
  Ring user_;
  std::uint64_t steals_ = 0;
};

TEST(PcidMapperTest, MatchesListLruModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Xoshiro256 rng(seed);
    PcidMapper mapper;
    ListLruPcidModel model;
    // 40 pids over 16 slots per ring: steals, refreshes and releases mix.
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t pid = rng.next_in(1, 40);
      if (rng.next_bool(0.08)) {
        mapper.release(pid);
        model.release(pid);
      } else {
        const bool kernel_ring = rng.next_bool(0.5);
        const PcidMapper::Mapping got = mapper.map(pid, kernel_ring);
        const PcidMapper::Mapping want = model.map(pid, kernel_ring);
        ASSERT_EQ(got.hw_pcid, want.hw_pcid) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.stolen, want.stolen) << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(mapper.live_mappings(), model.live_mappings());
    }
    EXPECT_EQ(mapper.steals(), model.steals());
    EXPECT_GT(mapper.steals(), 0u);
  }
}

}  // namespace
}  // namespace pvm
