// Tagged TLB model.
//
// Entries are tagged (VPID, PCID, VPN) like post-Westmere x86: VPID
// distinguishes VMs, PCID distinguishes address spaces within a VM. Global
// pages (the PVM switcher sets its whole region global, §3.2) match any PCID
// and survive PCID-targeted flushes. The PCID-mapping optimization (§3.3.2)
// works precisely because flush_pcid() is cheaper than flush_vpid(): mapped
// guest PCIDs let the hypervisor avoid the full-VPID flush on world switches.
//
// The TLB is fully associative: replacement is round-robin over a fixed slot
// array (deterministic and cheap), and an open-addressing table of slot
// numbers finds a tag in O(1). The table stores only 16-bit slot numbers —
// each probe recomputes its key from the slot it names — so it adds 2 bytes
// per index cell (8 KiB at the default 1,536 entries) and never allocates
// after construction.

#ifndef PVM_SRC_ARCH_TLB_H_
#define PVM_SRC_ARCH_TLB_H_

#include <cstdint>
#include <vector>

#include "src/arch/pte.h"

namespace pvm {

struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flush_all = 0;
  std::uint64_t flush_vpid = 0;
  std::uint64_t flush_pcid = 0;
  std::uint64_t entries_dropped = 0;
};

class Tlb {
 public:
  static constexpr std::uint16_t kGlobalPcid = 0xfff;

  // `capacity` must be in [1, 65535): slot numbers are 16-bit, and 0xffff
  // marks an empty index cell. Throws std::invalid_argument otherwise.
  explicit Tlb(std::size_t capacity = 1536);

  struct LookupResult {
    bool hit = false;
    std::uint64_t frame = 0;
    bool writable = false;
    bool user = false;
  };

  // Probes for (vpid, pcid, vpn); global entries in the same VPID also match.
  LookupResult lookup(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn);

  // Installs a translation from a completed walk.
  void insert(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn, const Pte& pte);

  // Drops everything (e.g. EPT flush).
  void flush_all();

  // Drops every entry belonging to one VM.
  void flush_vpid(std::uint16_t vpid);

  // Drops non-global entries of one (vpid, pcid) address space.
  void flush_pcid(std::uint16_t vpid, std::uint16_t pcid);

  // Drops one page translation (invlpg), including a global alias.
  void flush_page(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn);

  const TlbStats& stats() const { return stats_; }
  std::size_t valid_entries() const { return valid_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint16_t kNoSlot = 0xffff;
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  struct Entry {
    std::uint64_t key = 0;  // key(vpid, pcid, vpn) of the cached translation
    std::uint64_t frame = 0;
    std::uint16_t vpid = 0;
    std::uint16_t pcid = 0;
    bool valid = false;
    bool writable = false;
    bool user = false;
  };

  static std::uint64_t key(std::uint16_t vpid, std::uint16_t pcid, std::uint64_t vpn) {
    return (static_cast<std::uint64_t>(vpid) << 48) | (static_cast<std::uint64_t>(pcid) << 36) |
           (vpn & 0xfffffffffull);
  }

  // Home cell of `k` in the index (multiplicative hash, top bits).
  std::size_t home(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ull) >> index_shift_);
  }

  // Index cell naming the slot that holds `k`, or kNotFound.
  std::size_t find_cell(std::uint64_t k) const;

  // Removes a valid slot's key from the index (backward-shift deletion, so
  // the table never holds tombstones) and marks the slot invalid.
  void invalidate_slot(std::size_t slot);

  std::vector<Entry> slots_;
  std::vector<std::uint16_t> index_;  // slot numbers; kNoSlot = empty cell
  std::size_t index_mask_ = 0;
  int index_shift_ = 0;
  std::size_t valid_ = 0;
  std::size_t next_victim_ = 0;
  TlbStats stats_;
};

}  // namespace pvm

#endif  // PVM_SRC_ARCH_TLB_H_
