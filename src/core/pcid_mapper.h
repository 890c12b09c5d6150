// PCID mapping (paper §3.3.2, optimization 2).
//
// A traditional shadow-paging hypervisor flushes the whole guest VPID on any
// guest TLB-flush request, because all guest processes share one VPID tag.
// PVM instead assigns unused L1 PCID values to L2 address spaces — 32..47 for
// guest v_ring0 (kernel) and 48..63 for v_ring3 (user) — so the TLB can keep
// per-process shadow translations alive across world switches, and guest
// flush requests become targeted single-PCID flushes.
//
// 16 slots per ring are multiplexed over guest processes LRU-style; stealing
// a slot requires flushing its stale entries (counted, so benchmarks see the
// pressure effect with many processes).
//
// Each ring is a fixed array of 16 {pid, stamp} slots, one per hardware
// PCID, scanned linearly: no allocation, no hashing. One monotonic clock
// stamps every use and every release. The least-recently-used slot is the
// one with the lowest use stamp, and a released slot is reused
// most-recently-released first; before any release, untouched slots are
// handed out in ascending PCID order.

#ifndef PVM_SRC_CORE_PCID_MAPPER_H_
#define PVM_SRC_CORE_PCID_MAPPER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace pvm {

class PcidMapper {
 public:
  static constexpr std::uint16_t kKernelBase = 32;  // 32..47 for v_ring0
  static constexpr std::uint16_t kUserBase = 48;    // 48..63 for v_ring3
  static constexpr std::uint16_t kSlotsPerRing = 16;

  struct Mapping {
    std::uint16_t hw_pcid = 0;
    bool stolen = false;  // slot was recycled: its old TLB entries must go
  };

  // Returns the hardware PCID for (guest process, ring). LRU-recycles when
  // all 16 slots of the ring are in use.
  Mapping map(std::uint64_t guest_pid, bool kernel_ring) {
    Ring& ring = kernel_ring ? kernel_ : user_;
    const std::uint16_t base = kernel_ring ? kKernelBase : kUserBase;
    const std::uint64_t now = ++clock_;
    for (int i = 0; i < kSlotsPerRing; ++i) {
      if (ring[i].state == State::kMapped && ring[i].pid == guest_pid) {
        ring[i].stamp = now;  // refresh LRU position
        return Mapping{static_cast<std::uint16_t>(base + i), false};
      }
    }

    int fresh = -1;     // lowest never-used slot
    int released = -1;  // most recently released slot
    int lru = -1;       // least recently used mapped slot
    for (int i = 0; i < kSlotsPerRing; ++i) {
      const Slot& slot = ring[i];
      if (slot.state == State::kFresh && fresh < 0) {
        fresh = i;
      } else if (slot.state == State::kReleased &&
                 (released < 0 || slot.stamp > ring[released].stamp)) {
        released = i;
      } else if (slot.state == State::kMapped && (lru < 0 || slot.stamp < ring[lru].stamp)) {
        lru = i;
      }
    }
    const bool stolen = released < 0 && fresh < 0;
    const int chosen = released >= 0 ? released : fresh >= 0 ? fresh : lru;
    ring[chosen] = Slot{guest_pid, now, State::kMapped};
    if (stolen) {
      ++steals_;
    }
    return Mapping{static_cast<std::uint16_t>(base + chosen), stolen};
  }

  // Drops a process's mappings (process exit); their slots become free.
  void release(std::uint64_t guest_pid) {
    for (Ring* ring : {&kernel_, &user_}) {
      for (Slot& slot : *ring) {
        if (slot.state == State::kMapped && slot.pid == guest_pid) {
          slot.state = State::kReleased;
          slot.stamp = ++clock_;
        }
      }
    }
  }

  std::uint64_t steals() const { return steals_; }
  std::size_t live_mappings() const {
    std::size_t live = 0;
    for (const Ring* ring : {&kernel_, &user_}) {
      for (const Slot& slot : *ring) {
        live += slot.state == State::kMapped ? 1 : 0;
      }
    }
    return live;
  }

 private:
  enum class State : std::uint8_t { kFresh, kMapped, kReleased };
  struct Slot {
    std::uint64_t pid = 0;
    std::uint64_t stamp = 0;  // last use (kMapped) or release (kReleased)
    State state = State::kFresh;
  };
  using Ring = std::array<Slot, kSlotsPerRing>;

  Ring kernel_{};
  Ring user_{};
  std::uint64_t clock_ = 0;
  std::uint64_t steals_ = 0;
};

}  // namespace pvm

#endif  // PVM_SRC_CORE_PCID_MAPPER_H_
