#include "src/arch/page_table.h"

#include <utility>

namespace pvm {

PageTable::PageTable(std::string name, FrameAllocator* allocator)
    : name_(std::move(name)), allocator_(allocator) {
  root_ = directory_slab_.acquire();
  root_->level = kPageTableLevels;
  root_->frame = allocator_ ? allocator_->allocate_or_throw() : synthetic_next_frame_++;
  node_count_ = 1;
}

PageTable::~PageTable() {
  // Node memory is returned wholesale by the slab; only backing frames need
  // the recursive walk, and only when a FrameAllocator is attached.
  if (root_ != nullptr && allocator_ != nullptr) {
    release_node_frames(*root_);
  }
}

PageTable::PageTable(PageTable&& other) noexcept
    : name_(std::move(other.name_)),
      allocator_(other.allocator_),
      directory_slab_(std::move(other.directory_slab_)),
      leaf_slab_(std::move(other.leaf_slab_)),
      root_(other.root_),
      synthetic_next_frame_(other.synthetic_next_frame_),
      node_count_(other.node_count_),
      leaf_count_(other.leaf_count_) {
  other.root_ = nullptr;
  other.allocator_ = nullptr;
  other.node_count_ = 0;
  other.leaf_count_ = 0;
}

PageTable& PageTable::operator=(PageTable&& other) noexcept {
  if (this != &other) {
    // Swap wholesale: our previous state rides out in `other` and is torn
    // down by its destructor (frames released there, slabs freed there).
    std::swap(name_, other.name_);
    std::swap(allocator_, other.allocator_);
    std::swap(directory_slab_, other.directory_slab_);
    std::swap(leaf_slab_, other.leaf_slab_);
    std::swap(root_, other.root_);
    std::swap(synthetic_next_frame_, other.synthetic_next_frame_);
    std::swap(node_count_, other.node_count_);
    std::swap(leaf_count_, other.leaf_count_);
  }
  return *this;
}

void PageTable::release_node_frames(const Node& node) {
  for (const Node* child : children(node)) {
    if (child != nullptr) {
      release_node_frames(*child);
    }
  }
  if (allocator_) {
    allocator_->free(node.frame);
  }
}

void PageTable::destroy_subtree(Node* node) {
  for (Node* child : children(*node)) {
    if (child != nullptr) {
      destroy_subtree(child);
    }
  }
  if (allocator_) {
    allocator_->free(node->frame);
  }
  if (node->level == 1) {
    leaf_slab_.release(static_cast<Leaf*>(node));
  } else {
    directory_slab_.release(static_cast<Directory*>(node));
  }
}

std::uint64_t PageTable::root_frame() const { return root_->frame; }

PageTable::Node* PageTable::ensure_child(Directory& parent, std::uint64_t index,
                                         MapResult& result) {
  if (!parent.children[index]) {
    Node* child = parent.level == 2 ? static_cast<Node*>(leaf_slab_.acquire())
                                    : directory_slab_.acquire();
    child->level = parent.level - 1;
    child->frame = allocator_ ? allocator_->allocate_or_throw() : synthetic_next_frame_++;
    ++node_count_;
    ++result.nodes_allocated;
    // Installing the child's frame into the parent entry is a PTE store;
    // the child pointer below stands for that entry.
    ++result.entries_written;
    parent.children[index] = child;
  }
  return parent.children[index];
}

PageTable::Leaf* PageTable::leaf_node(std::uint64_t va) const {
  Node* node = root_;
  for (int level = kPageTableLevels; level > 1 && node != nullptr; --level) {
    node = static_cast<Directory*>(node)->children[table_index(va, level)];
  }
  return static_cast<Leaf*>(node);
}

MapResult PageTable::map(std::uint64_t va, std::uint64_t frame_number, const PteFlags& flags) {
  MapResult result;
  Node* node = root_;
  for (int level = kPageTableLevels; level > 1; --level) {
    node = ensure_child(*static_cast<Directory*>(node), table_index(va, level), result);
  }
  Pte& leaf = static_cast<Leaf*>(node)->entries[table_index(va, 1)];
  if (leaf.present()) {
    result.replaced = true;
  } else {
    ++leaf_count_;
  }
  leaf = Pte::make(frame_number, flags);
  ++result.entries_written;
  return result;
}

WalkResult PageTable::walk(std::uint64_t va, AccessType access, bool user_mode) const {
  WalkResult result;
  const Node* node = root_;
  for (int level = kPageTableLevels; level > 1; --level) {
    result.node_frames[result.levels_walked] = node->frame;
    ++result.levels_walked;
    node = static_cast<const Directory*>(node)->children[table_index(va, level)];
    if (node == nullptr) {
      result.missing_level = level;
      return result;
    }
  }
  result.node_frames[result.levels_walked] = node->frame;
  ++result.levels_walked;
  const Pte& leaf = static_cast<const Leaf*>(node)->entries[table_index(va, 1)];
  if (!leaf.present()) {
    result.missing_level = 1;
    return result;
  }
  result.present = true;
  result.pte = leaf;
  bool ok = true;
  if (access == AccessType::kWrite && !leaf.writable()) {
    ok = false;
  }
  if (user_mode && !leaf.user()) {
    ok = false;
  }
  if (access == AccessType::kExecute && leaf.no_execute()) {
    ok = false;
  }
  result.permission_ok = ok;
  return result;
}

bool PageTable::unmap(std::uint64_t va) {
  Pte* leaf = find_pte(va);
  if (leaf == nullptr || !leaf->present()) {
    return false;
  }
  *leaf = Pte();
  --leaf_count_;
  return true;
}

Pte* PageTable::find_pte(std::uint64_t va) {
  Leaf* node = leaf_node(va);
  return node != nullptr ? &node->entries[table_index(va, 1)] : nullptr;
}

const Pte* PageTable::find_pte(std::uint64_t va) const {
  const Leaf* node = leaf_node(va);
  return node != nullptr ? &node->entries[table_index(va, 1)] : nullptr;
}

void PageTable::clear() {
  for (Node*& child : root_->children) {
    if (child != nullptr) {
      // Subtree slots go back to the slab's free list so the next build
      // cycle (shadow-table rebuilds do this constantly) reuses them.
      destroy_subtree(child);
      child = nullptr;
    }
  }
  // Rebuild bookkeeping: only the root remains.
  node_count_ = 1;
  leaf_count_ = 0;
}

bool PageTable::owns_table_frame(std::uint64_t frame) const {
  return subtree_owns_frame(*root_, frame);
}

bool PageTable::subtree_owns_frame(const Node& node, std::uint64_t frame) {
  if (node.frame == frame) {
    return true;
  }
  for (const Node* child : children(node)) {
    if (child != nullptr && subtree_owns_frame(*child, frame)) {
      return true;
    }
  }
  return false;
}

}  // namespace pvm
