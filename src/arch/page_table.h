// 4-level radix page table.
//
// One class serves every table in the stack — GPT2 (GVA->GPA_L2), GPT1 and
// EPT12 (GPA_L2->GPA_L1), EPT01/EPT02 (->HPA), and the shadow tables SPT12 —
// because they all share the x86-64 4-level structure. Addresses are raw
// 64-bit values here; callers apply the strong types of addresses.h.
//
// Table pages consume frames from the owning space's FrameAllocator, so guest
// page tables are write-protectable at frame granularity. `MapResult` counts
// the PTE stores each mapping performed — the unit at which shadow-paging
// write-protect traps fire (paper §3.3.2: an n-level GPT update costs n trap
// rounds).
//
// Each table page is sized to its level: a leaf table (level 1) holds its
// 512 PTEs, a directory (levels 2-4) its 512 child pointers. A directory
// entry is the rw/user PTE naming its child's frame, present exactly when
// the child exists, so the child pointer stands for it: the store is still
// counted, and a walk tests the pointer.

#ifndef PVM_SRC_ARCH_PAGE_TABLE_H_
#define PVM_SRC_ARCH_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "src/arch/addresses.h"
#include "src/arch/physical_memory.h"
#include "src/arch/pte.h"
#include "src/sim/arena.h"

namespace pvm {

enum class AccessType { kRead, kWrite, kExecute };

struct MapResult {
  int nodes_allocated = 0;  // new table pages created for this mapping
  int entries_written = 0;  // PTE stores performed (1..kPageTableLevels)
  bool replaced = false;    // an existing present mapping was overwritten
};

struct WalkResult {
  bool present = false;        // complete translation exists
  bool permission_ok = false;  // and permits the requested access
  Pte pte;                     // leaf PTE when present
  int levels_walked = 0;       // table loads performed (cost model input)
  int missing_level = 0;       // level whose entry was absent (0 if none)
  // Frames of the table pages loaded during the walk, root first. In a
  // 2-dimensional walk each of these loads itself requires an EPT lookup.
  std::array<std::uint64_t, kPageTableLevels> node_frames{};
};

class PageTable {
 public:
  // `allocator` provides frames for table pages; may be null for tables whose
  // backing frames are irrelevant (synthetic ids are used instead).
  PageTable(std::string name, FrameAllocator* allocator);
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  // Moves transfer the node slabs wholesale; node pointers stay valid because
  // slabs live on the heap, not inside the PageTable object.
  PageTable(PageTable&& other) noexcept;
  PageTable& operator=(PageTable&& other) noexcept;

  // Installs va -> frame with `flags`, creating intermediate nodes as needed.
  MapResult map(std::uint64_t va, std::uint64_t frame_number, const PteFlags& flags);

  // Walks the tree checking permissions for `access` performed from
  // user (`user_mode`=true) or supervisor mode.
  WalkResult walk(std::uint64_t va, AccessType access, bool user_mode) const;

  // Removes the leaf mapping. Returns true if one existed. Intermediate nodes
  // are retained (as on real kernels, which free them lazily if at all).
  bool unmap(std::uint64_t va);

  // Pointer to the leaf PTE for va, or nullptr if the chain is incomplete.
  Pte* find_pte(std::uint64_t va);
  const Pte* find_pte(std::uint64_t va) const;

  // Applies `mutate(Pte&)` to the leaf PTE if its table chain exists;
  // returns true on success. `touched_table_frame` (optional) receives the
  // frame of the leaf's table page, the one the store wrote into.
  template <typename Mutate>
  bool update_pte(std::uint64_t va, Mutate&& mutate,
                  std::uint64_t* touched_table_frame = nullptr);

  // Visits every present leaf as fn(va, pte), in ascending address order
  // (user half first, then the sign-extended kernel half).
  template <typename Fn>
  void for_each_leaf(Fn&& fn) const {
    visit_leaves(*root_, 0, fn);
  }

  // Drops every mapping and every node except the root.
  void clear();

  const std::string& name() const { return name_; }
  std::uint64_t root_frame() const;
  std::uint64_t node_count() const { return node_count_; }
  std::uint64_t present_leaf_count() const { return leaf_count_; }

  // True if `frame` backs one of this table's nodes (i.e. the frame holds
  // page-table data). Walks the tree: a diagnostic, not a hot-path query.
  bool owns_table_frame(std::uint64_t frame) const;

  // Node-allocation accounting: table pages are slab-allocated per table
  // (arena-per-owner), so node churn — shadow-table teardown/rebuild cycles
  // in particular — recycles slots instead of hitting the heap. Feeds the
  // opt-in `alloc` section of the bench export.
  SlabStats node_alloc_stats() const {
    SlabStats stats = directory_slab_.stats();
    stats += leaf_slab_.stats();
    return stats;
  }

 private:
  // One table page, 4,112 bytes either way. Trivially destructible by
  // design — the owning slabs free all node memory wholesale in ~PageTable
  // with no per-node walk (frames still need a walk, but only when a
  // FrameAllocator is attached).
  struct Node {
    std::uint64_t frame = 0;
    int level = 0;  // 4 = root (PML4) ... 1 = leaf page table
  };
  struct Directory : Node {
    std::array<Node*, kEntriesPerNode> children{};
  };
  struct Leaf : Node {
    std::array<Pte, kEntriesPerNode> entries{};
  };

  // A directory's child slots; none for a leaf table.
  static std::span<Node* const> children(const Node& node) {
    if (node.level == 1) {
      return {};
    }
    return static_cast<const Directory&>(node).children;
  }

  Node* ensure_child(Directory& parent, std::uint64_t index, MapResult& result);
  Leaf* leaf_node(std::uint64_t va) const;
  void release_node_frames(const Node& node);
  void destroy_subtree(Node* node);
  static bool subtree_owns_frame(const Node& node, std::uint64_t frame);

  template <typename Fn>
  static void visit_leaves(const Node& node, std::uint64_t prefix, Fn& fn) {
    const std::uint64_t shift = kPageShift + 9 * static_cast<std::uint64_t>(node.level - 1);
    for (std::uint64_t i = 0; i < kEntriesPerNode; ++i) {
      if (node.level == 1) {
        const Pte& pte = static_cast<const Leaf&>(node).entries[i];
        if (pte.present()) {
          fn(canonical_address(prefix | (i << shift)), pte);
        }
      } else if (const Node* child = children(node)[i]) {
        visit_leaves(*child, prefix | (i << shift), fn);
      }
    }
  }

  std::string name_;
  FrameAllocator* allocator_;
  // Each kind's first slab holds one node and each later slab doubles, so a
  // table reserves less than twice the nodes of each kind it uses. Most
  // tables are small (a process's GPT and SPTs map a few regions), and
  // their unused slots would still take heap: a first slab of 8 nodes put
  // perfbench `apps` at 39 MiB peak RSS instead of 32.
  SlabAllocator<Directory> directory_slab_{1};
  SlabAllocator<Leaf> leaf_slab_{1};
  Directory* root_ = nullptr;
  std::uint64_t synthetic_next_frame_ = 1ull << 40;  // out-of-band ids w/o allocator
  std::uint64_t node_count_ = 0;
  std::uint64_t leaf_count_ = 0;
};

template <typename Mutate>
bool PageTable::update_pte(std::uint64_t va, Mutate&& mutate,
                           std::uint64_t* touched_table_frame) {
  Leaf* node = leaf_node(va);
  if (node == nullptr) {
    return false;
  }
  Pte& leaf = node->entries[table_index(va, 1)];
  const bool was_present = leaf.present();
  mutate(leaf);
  if (was_present && !leaf.present()) {
    --leaf_count_;
  } else if (!was_present && leaf.present()) {
    ++leaf_count_;
  }
  if (touched_table_frame != nullptr) {
    *touched_table_frame = node->frame;
  }
  return true;
}

}  // namespace pvm

#endif  // PVM_SRC_ARCH_PAGE_TABLE_H_
