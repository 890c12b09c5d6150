#include "src/arch/tlb.h"

#include <stdexcept>
#include <string>

namespace pvm {

Tlb::Tlb(std::size_t capacity) : slots_(capacity) {
  if (capacity == 0 || capacity >= kNoSlot) {
    throw std::invalid_argument("Tlb capacity " + std::to_string(capacity) +
                                " outside [1, 65535)");
  }
  // Power-of-two index at least twice the capacity: load stays <= 50%.
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * capacity) {
    ++bits;
  }
  index_.assign(std::size_t{1} << bits, kNoSlot);
  index_mask_ = index_.size() - 1;
  index_shift_ = 64 - bits;
}

std::size_t Tlb::find_cell(std::uint64_t k) const {
  for (std::size_t cell = home(k);; cell = (cell + 1) & index_mask_) {
    const std::uint16_t slot = index_[cell];
    if (slot == kNoSlot) {
      return kNotFound;
    }
    if (slots_[slot].key == k) {
      return cell;
    }
  }
}

Tlb::LookupResult Tlb::lookup(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn) {
  std::size_t cell = find_cell(key(vpid, pcid, vpn));
  if (cell == kNotFound && pcid != kGlobalPcid) {
    cell = find_cell(key(vpid, kGlobalPcid, vpn));
  }
  if (cell == kNotFound) {
    ++stats_.misses;
    return {};
  }
  ++stats_.hits;
  const Entry& entry = slots_[index_[cell]];
  return LookupResult{true, entry.frame, entry.writable, entry.user};
}

void Tlb::insert(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn, const Pte& pte) {
  const std::uint16_t tag = pte.global() ? kGlobalPcid : pcid;
  const std::uint64_t k = key(vpid, tag, vpn);

  std::size_t slot;
  if (const std::size_t cell = find_cell(k); cell != kNotFound) {
    slot = index_[cell];
  } else {
    // Round-robin victim selection: deterministic replacement.
    slot = next_victim_;
    next_victim_ = (next_victim_ + 1) % slots_.size();
    if (slots_[slot].valid) {
      ++stats_.evictions;
      invalidate_slot(slot);
    }
    // Probe after the eviction: its backward shift may have moved cells.
    std::size_t free_cell = home(k);
    while (index_[free_cell] != kNoSlot) {
      free_cell = (free_cell + 1) & index_mask_;
    }
    index_[free_cell] = static_cast<std::uint16_t>(slot);
    ++valid_;
  }

  Entry& entry = slots_[slot];
  entry.key = k;
  entry.frame = pte.frame_number();
  entry.vpid = vpid;
  entry.pcid = tag;
  entry.valid = true;
  entry.writable = pte.writable();
  entry.user = pte.user();
}

void Tlb::invalidate_slot(std::size_t slot) {
  Entry& entry = slots_[slot];
  if (!entry.valid) {
    return;
  }
  std::size_t hole = find_cell(entry.key);
  // Backward shift: pull each later cell of the probe run into the hole
  // unless its home lies cyclically after the hole.
  for (std::size_t cell = (hole + 1) & index_mask_; index_[cell] != kNoSlot;
       cell = (cell + 1) & index_mask_) {
    const std::size_t cell_home = home(slots_[index_[cell]].key);
    if (((cell - cell_home) & index_mask_) >= ((cell - hole) & index_mask_)) {
      index_[hole] = index_[cell];
      hole = cell;
    }
  }
  index_[hole] = kNoSlot;
  entry.valid = false;
  --valid_;
  ++stats_.entries_dropped;
}

void Tlb::flush_all() {
  ++stats_.flush_all;
  stats_.entries_dropped += valid_;
  for (Entry& entry : slots_) {
    entry.valid = false;
  }
  index_.assign(index_.size(), kNoSlot);
  valid_ = 0;
}

void Tlb::flush_vpid(std::uint16_t vpid) {
  ++stats_.flush_vpid;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].vpid == vpid) {
      invalidate_slot(i);
    }
  }
}

void Tlb::flush_pcid(std::uint16_t vpid, std::uint16_t pcid) {
  ++stats_.flush_pcid;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // Global entries survive PCID-targeted flushes, as on hardware.
    if (slots_[i].valid && slots_[i].vpid == vpid && slots_[i].pcid == pcid) {
      invalidate_slot(i);
    }
  }
}

void Tlb::flush_page(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn) {
  auto drop = [&](std::uint16_t tag) {
    if (const std::size_t cell = find_cell(key(vpid, tag, vpn)); cell != kNotFound) {
      invalidate_slot(index_[cell]);
    }
  };
  drop(pcid);
  drop(kGlobalPcid);
}

}  // namespace pvm
