// Address types for the simulated x86-64 machine.
//
// Three physical address spaces exist in 2-level nested virtualization:
//   GVA_L2 --GPT2--> GPA_L2 --GPT1/EPT12--> GPA_L1 --EPT01--> HPA
// Strong types keep translations honest at module boundaries; the page-table
// code itself operates on raw 64-bit values (documented at each call site).

#ifndef PVM_SRC_ARCH_ADDRESSES_H_
#define PVM_SRC_ARCH_ADDRESSES_H_

#include <compare>
#include <cstdint>

namespace pvm {

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;  // 4 KiB
inline constexpr std::uint64_t kPageMask = kPageSize - 1;

// 4-level radix tree: 9 bits per level, 48-bit canonical addresses.
inline constexpr int kPageTableLevels = 4;
inline constexpr std::uint64_t kEntriesPerNode = 512;
inline constexpr std::uint64_t kIndexMask = kEntriesPerNode - 1;

constexpr std::uint64_t page_number(std::uint64_t address) { return address >> kPageShift; }
constexpr std::uint64_t page_base(std::uint64_t address) { return address & ~kPageMask; }
constexpr std::uint64_t page_offset(std::uint64_t address) { return address & kPageMask; }

// Index into the level-`level` node for `address`; level 4 = root (PML4),
// level 1 = leaf page table.
constexpr std::uint64_t table_index(std::uint64_t address, int level) {
  return (address >> (kPageShift + 9 * (level - 1))) & kIndexMask;
}

// Sign-extends bit 47 into bits 48..63: the canonical form of a 48-bit
// address assembled from table indices (kernel-half addresses start at
// 0xffff800000000000).
constexpr std::uint64_t canonical_address(std::uint64_t address) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(address << 16) >> 16);
}

template <typename Tag>
struct Address {
  std::uint64_t raw = 0;

  constexpr Address() = default;
  constexpr explicit Address(std::uint64_t value) : raw(value) {}

  constexpr std::uint64_t value() const { return raw; }
  constexpr std::uint64_t page() const { return page_number(raw); }
  constexpr std::uint64_t offset() const { return page_offset(raw); }
  constexpr Address base() const { return Address(page_base(raw)); }
  constexpr Address operator+(std::uint64_t delta) const { return Address(raw + delta); }

  auto operator<=>(const Address&) const = default;
};

// Guest virtual address as seen by the innermost guest's user/kernel code.
using Gva = Address<struct GvaTag>;
// Guest physical address of the innermost guest (GPA_L2 in nested setups).
using Gpa = Address<struct GpaTag>;
// Physical address of the L1 VM (GPA_L1); identical to Hpa in bare-metal runs.
using L1Pa = Address<struct L1PaTag>;
// Host (L0) physical address.
using Hpa = Address<struct HpaTag>;

}  // namespace pvm

#endif  // PVM_SRC_ARCH_ADDRESSES_H_
