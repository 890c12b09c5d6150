// SlabAllocator unit tests: alignment, free-list recycling, poison-based
// use-after-release detection, geometric slab growth, and the stats
// accounting the pvm.bench.v1 `alloc` section is built from. Also the other
// two allocation-free hot-path pieces: FlatMap against a std::map model
// (wrap-around deletion, erase_if) and the coroutine frame pool.
//
// Poisoning exists only in !NDEBUG builds, so the use-after-release cases
// are compiled out under the release preset and exercised by the asan/tsan
// presets (which build without NDEBUG).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/sim/arena.h"
#include "src/sim/flat_map.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace pvm {
namespace {

struct SmallPod {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

struct alignas(16) AlignedPod {
  std::uint64_t payload[4] = {};
};

// Non-trivial type: counts constructions/destructions so release() can be
// shown to run the destructor and the wholesale teardown to skip it.
struct Counted {
  explicit Counted(int* counter) : counter_(counter) { ++*counter_; }
  ~Counted() { --*counter_; }
  int* counter_;
};

bool is_aligned(const void* p, std::size_t alignment) {
  return reinterpret_cast<std::uintptr_t>(p) % alignment == 0;
}

TEST(SlabAllocator, AcquireReturnsAlignedConstructedObjects) {
  SlabAllocator<SmallPod> small{4};
  SlabAllocator<AlignedPod> aligned{4};
  for (int i = 0; i < 64; ++i) {
    SmallPod* s = small.acquire();
    ASSERT_TRUE(is_aligned(s, alignof(SmallPod)));
    EXPECT_EQ(s->a, 0u);  // value-constructed, not raw slab bytes
    EXPECT_EQ(s->b, 0u);
    AlignedPod* a = aligned.acquire();
    ASSERT_TRUE(is_aligned(a, alignof(AlignedPod)));
  }
}

TEST(SlabAllocator, ForwardsConstructorArguments) {
  SlabAllocator<std::string> slab{2};
  std::string* s = slab.acquire("shadow-page");
  EXPECT_EQ(*s, "shadow-page");
  slab.release(s);
}

TEST(SlabAllocator, ReleaseRecyclesThroughFreeListLifo) {
  SlabAllocator<SmallPod> slab{8};
  SmallPod* first = slab.acquire();
  SmallPod* second = slab.acquire();
  slab.release(first);
  slab.release(second);
  // Intrusive free list is LIFO: last released is first reused.
  EXPECT_EQ(slab.acquire(), second);
  EXPECT_EQ(slab.acquire(), first);
  EXPECT_EQ(slab.stats().slabs, 1u);  // recycling never grew a slab
}

TEST(SlabAllocator, ReleaseRunsDestructorTeardownDoesNot) {
  int live = 0;
  {
    SlabAllocator<Counted> slab{4};
    Counted* a = slab.acquire(&live);
    Counted* b = slab.acquire(&live);
    EXPECT_EQ(live, 2);
    slab.release(a);
    EXPECT_EQ(live, 1);
    (void)b;  // still live when the allocator dies
  }
  // Wholesale slab teardown skips destructors by design: the counter still
  // reflects the unreleased object.
  EXPECT_EQ(live, 1);
}

TEST(SlabAllocator, SlabGrowthIsGeometric) {
  SlabAllocator<SmallPod> slab{2};
  std::vector<SmallPod*> held;
  // First slab: 2 objects. Doubling: 2, 4, 8 -> 14 objects in 3 slabs.
  for (int i = 0; i < 14; ++i) {
    held.push_back(slab.acquire());
  }
  EXPECT_EQ(slab.stats().slabs, 3u);
  // One more acquire opens the fourth slab (16 objects).
  held.push_back(slab.acquire());
  EXPECT_EQ(slab.stats().slabs, 4u);
  const std::uint64_t slot = sizeof(SmallPod) > sizeof(void*) ? sizeof(SmallPod) : sizeof(void*);
  EXPECT_EQ(slab.stats().bytes_reserved, (2 + 4 + 8 + 16) * slot);
  // Distinct live pointers: no slot was handed out twice.
  for (std::size_t i = 0; i < held.size(); ++i) {
    for (std::size_t j = i + 1; j < held.size(); ++j) {
      ASSERT_NE(held[i], held[j]);
    }
  }
}

TEST(SlabAllocator, StatsTrackLiveAndHighWater) {
  SlabAllocator<SmallPod> slab{4};
  std::vector<SmallPod*> held;
  for (int i = 0; i < 10; ++i) {
    held.push_back(slab.acquire());
  }
  EXPECT_EQ(slab.stats().acquired, 10u);
  EXPECT_EQ(slab.stats().live, 10u);
  EXPECT_EQ(slab.stats().live_high_water, 10u);
  for (int i = 0; i < 7; ++i) {
    slab.release(held.back());
    held.pop_back();
  }
  EXPECT_EQ(slab.stats().released, 7u);
  EXPECT_EQ(slab.stats().live, 3u);
  EXPECT_EQ(slab.stats().live_high_water, 10u);  // HWM does not decay
  // Climb back, but not past the old mark: HWM unchanged.
  for (int i = 0; i < 5; ++i) {
    held.push_back(slab.acquire());
  }
  EXPECT_EQ(slab.stats().live, 8u);
  EXPECT_EQ(slab.stats().live_high_water, 10u);
  // Exceed it: HWM follows.
  for (int i = 0; i < 4; ++i) {
    held.push_back(slab.acquire());
  }
  EXPECT_EQ(slab.stats().live, 12u);
  EXPECT_EQ(slab.stats().live_high_water, 12u);
}

TEST(SlabAllocator, StatsAggregateWithOperatorPlusEquals) {
  SlabAllocator<SmallPod> a{4};
  SlabAllocator<AlignedPod> b{4};
  SmallPod* pa = a.acquire();
  a.acquire();
  b.acquire();
  a.release(pa);
  SlabStats total = a.stats();
  total += b.stats();
  EXPECT_EQ(total.acquired, 3u);
  EXPECT_EQ(total.released, 1u);
  EXPECT_EQ(total.live, 2u);
  EXPECT_EQ(total.live_high_water, 3u);
  EXPECT_EQ(total.slabs, 2u);
  EXPECT_EQ(total.bytes_reserved, a.stats().bytes_reserved + b.stats().bytes_reserved);
}

TEST(SlabAllocator, CleanFreeListVerifiesIntact) {
  SlabAllocator<AlignedPod> slab{4};
  std::vector<AlignedPod*> held;
  for (int i = 0; i < 8; ++i) {
    held.push_back(slab.acquire());
  }
  for (AlignedPod* p : held) {
    slab.release(p);
  }
  EXPECT_EQ(slab.debug_verify_free_slots(), 0u);
  // Reacquire everything: poison verification on reuse must pass.
  for (int i = 0; i < 8; ++i) {
    EXPECT_NO_THROW(slab.acquire());
  }
}

#ifndef NDEBUG

TEST(SlabAllocatorDebug, WriteAfterReleaseIsDetectedBySweep) {
  SlabAllocator<AlignedPod> slab{4};
  AlignedPod* victim = slab.acquire();
  slab.release(victim);
  EXPECT_EQ(slab.debug_verify_free_slots(), 0u);
  // Use-after-release: write through the dangling pointer, past the
  // intrusive free-list link. The slab still owns this memory, so the write
  // is legal for the sanitizers — the poison sweep is what catches it.
  victim->payload[2] = 0xDEADBEEF;
  EXPECT_EQ(slab.debug_verify_free_slots(), 1u);
}

TEST(SlabAllocatorDebug, WriteAfterReleaseThrowsOnReuse) {
  SlabAllocator<AlignedPod> slab{4};
  AlignedPod* victim = slab.acquire();
  slab.release(victim);
  victim->payload[3] = 1;
  EXPECT_THROW(slab.acquire(), std::logic_error);
}

TEST(SlabAllocatorDebug, PoisonCoversWholeSlotBeyondFreeLink) {
  SlabAllocator<AlignedPod> slab{4};
  AlignedPod* victim = slab.acquire();
  slab.release(victim);
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(victim);
  for (std::size_t i = sizeof(void*); i < sizeof(AlignedPod); ++i) {
    ASSERT_EQ(bytes[i], SlabAllocator<AlignedPod>::kPoisonByte) << "offset " << i;
  }
}

#endif  // !NDEBUG

// ---- FlatMap ----

// Modular inverse of FlatMap's multiplicative mixing constant, so a test
// hash can choose the home slot its keys land on.
constexpr std::uint64_t kMixInverse = [] {
  constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ull;
  std::uint64_t inverse = kMix;  // Newton: each step doubles the correct bits
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - kMix * inverse;
  }
  return inverse;
}();

// Sends every key home to the table's last slot, so every probe run wraps
// around the end of the slot array.
struct LastSlotHash {
  std::uint64_t operator()(std::uint64_t key) const {
    return (0xf000000000000000ull | key) * kMixInverse;
  }
};

struct MixedHash {
  std::uint64_t operator()(std::uint64_t key) const { return key; }
};

TEST(FlatMapTest, InsertFindEraseBasics) {
  FlatMap<std::uint64_t, int, MixedHash> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_FALSE(map.erase(1));
  const auto [value, inserted] = map.try_emplace(1, 10);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 10);
  EXPECT_FALSE(map.try_emplace(1, 11).second);
  EXPECT_EQ(*map.find(1), 10);
  map.insert_or_assign(1, 12);
  EXPECT_EQ(*map.find(1), 12);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.erase(1));
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMapTest, WrapAroundDeletionKeepsEveryProbeRunReachable) {
  FlatMap<std::uint64_t, std::uint64_t, LastSlotHash> map;
  // One probe run: the last slot, then slots 0, 1, ... from the front.
  for (std::uint64_t key = 0; key < 8; ++key) {
    map.try_emplace(key, key * 100);
  }
  // Erase from the middle, the wrapped tail and the head of the run.
  for (const std::uint64_t gone : {3u, 7u, 0u}) {
    ASSERT_TRUE(map.erase(gone));
    ASSERT_EQ(map.find(gone), nullptr);
  }
  for (const std::uint64_t key : {1u, 2u, 4u, 5u, 6u}) {
    ASSERT_NE(map.find(key), nullptr) << key;
    EXPECT_EQ(*map.find(key), key * 100);
  }
  EXPECT_EQ(map.size(), 5u);
}

TEST(FlatMapTest, MatchesStdMapUnderRandomChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Xoshiro256 rng(seed);
    FlatMap<std::uint64_t, std::uint64_t, LastSlotHash> wrapped;
    FlatMap<std::uint64_t, std::uint64_t, MixedHash> mixed;
    std::map<std::uint64_t, std::uint64_t> model;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t key = rng.next_below(48);
      if (rng.next_bool(0.55)) {
        const bool inserted = model.try_emplace(key, step).second;
        ASSERT_EQ(wrapped.try_emplace(key, step).second, inserted);
        ASSERT_EQ(mixed.try_emplace(key, step).second, inserted);
      } else {
        const bool erased = model.erase(key) > 0;
        ASSERT_EQ(wrapped.erase(key), erased);
        ASSERT_EQ(mixed.erase(key), erased);
      }
      ASSERT_EQ(wrapped.size(), model.size());
      ASSERT_EQ(mixed.size(), model.size());
    }
    for (std::uint64_t key = 0; key < 48; ++key) {
      const auto it = model.find(key);
      const std::uint64_t* got = wrapped.find(key);
      ASSERT_EQ(got != nullptr, it != model.end()) << key;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
        EXPECT_EQ(*mixed.find(key), it->second);
      }
    }
  }
}

TEST(FlatMapTest, EraseIfRemovesExactlyTheMatchesAcrossTheWrap) {
  FlatMap<std::uint64_t, std::uint64_t, LastSlotHash> map;
  for (std::uint64_t key = 0; key < 40; ++key) {
    map.try_emplace(key, key);
  }
  std::map<std::uint64_t, int> visits_of_erased;
  const std::size_t erased = map.erase_if([&](std::uint64_t key, std::uint64_t value) {
    EXPECT_EQ(key, value);
    if (key % 3 == 0) {
      ++visits_of_erased[key];
      return true;
    }
    return false;
  });
  EXPECT_EQ(erased, 14u);  // 0, 3, ..., 39
  EXPECT_EQ(map.size(), 26u);
  for (const auto& [key, visits] : visits_of_erased) {
    EXPECT_EQ(visits, 1) << key;
  }
  for (std::uint64_t key = 0; key < 40; ++key) {
    EXPECT_EQ(map.find(key) != nullptr, key % 3 != 0) << key;
  }
  std::vector<std::uint64_t> seen;
  map.for_each([&](std::uint64_t key, std::uint64_t) { seen.push_back(key); });
  EXPECT_EQ(seen.size(), 26u);
}

// ---- Coroutine frame pool ----

TEST(TaskFramePoolTest, FreedFrameIsReused) {
  if (!task_frames::kPooled) {
    GTEST_SKIP() << "the frame pool is compiled out under AddressSanitizer";
  }
  auto make = []() -> Task<int> { co_return 7; };
  void* first = nullptr;
  {
    Task<int> task = make();
    first = task.handle().address();
  }
  // Heap blocks of every pooled size: had the frame gone back to malloc, one
  // of these would take its memory, and the next frame would land elsewhere.
  std::vector<void*> heap_blocks;
  for (std::size_t size = 16; size <= task_frames::kClasses * task_frames::kClassBytes;
       size += 16) {
    heap_blocks.push_back(::operator new(size));
  }
  Task<int> again = make();
  EXPECT_EQ(again.handle().address(), first);
  for (void* block : heap_blocks) {
    ::operator delete(block);
  }
}

}  // namespace
}  // namespace pvm
