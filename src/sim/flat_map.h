// Open-addressing hash map for the simulator hot path.
//
// `FlatMap<Key, Value, Hash>` keeps its entries inline in one power-of-two
// slot array: linear probing, at most half full, and backward-shift deletion,
// so the table never holds tombstones and a lookup stops at the first empty
// slot. There is no per-entry heap node, and a steady-state insert/erase
// churn (the shadow engine's backpointers) allocates nothing once the table
// has grown to its high-water mark.
//
// Iteration order follows the slot array: deterministic for a given history
// of operations, but not sorted. Callers that need an order (checkpoints,
// oracle reports) collect the keys and sort them.
//
// `Hash` maps a key to 64 bits; the map mixes those bits itself, so a plain
// field combination is enough. Keys and values must be default-constructible
// and copyable. Not thread-safe: like every owner in the simulator, a map is
// confined to one simulation thread.

#ifndef PVM_SRC_SIM_FLAT_MAP_H_
#define PVM_SRC_SIM_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pvm {

// `Hash` for integer keys: the map mixes the bits itself.
struct IdentityHash {
  std::uint64_t operator()(std::uint64_t key) const { return key; }
};

template <typename Key, typename Value, typename Hash>
class FlatMap {
 public:
  std::size_t size() const { return size_; }

  Value* find(const Key& key) {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? nullptr : &slots_[slot].value;
  }
  const Value* find(const Key& key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? nullptr : &slots_[slot].value;
  }

  // Inserts (key, value) unless `key` is present. Returns the mapped value
  // and whether it was inserted.
  std::pair<Value*, bool> try_emplace(const Key& key, const Value& value) {
    if (Value* existing = find(key)) {
      return {existing, false};
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
    }
    Slot& slot = slots_[free_slot_for(key)];
    slot = Slot{key, value, true};
    ++size_;
    return {&slot.value, true};
  }

  void insert_or_assign(const Key& key, const Value& value) {
    auto [mapped, inserted] = try_emplace(key, value);
    if (!inserted) {
      *mapped = value;
    }
  }

  // Removes `key`; returns whether it was present.
  bool erase(const Key& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNotFound) {
      return false;
    }
    erase_slot(slot);
    return true;
  }

  // Removes every entry for which pred(key, value) holds; returns the count.
  // `pred` may see an entry it keeps more than once (a backward shift can
  // carry a kept entry past the cursor), but never one it erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = 0; i < slots_.size();) {
      Slot& slot = slots_[i];
      if (slot.used && pred(slot.key, slot.value)) {
        erase_slot(i);  // slot i now holds a shifted successor (or is empty)
        ++erased;
      } else {
        ++i;
      }
    }
    return erased;
  }

  // Visits every entry as fn(key, value) in slot order.
  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) {
        fn(slot.key, slot.value);
      }
    }
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr int kInitialBits = 4;

  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>((Hash{}(key) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::size_t find_slot(const Key& key) const {
    if (size_ == 0) {
      return kNotFound;
    }
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (!slot.used) {
        return kNotFound;
      }
      if (slot.key == key) {
        return i;
      }
    }
  }

  std::size_t free_slot_for(const Key& key) const {
    std::size_t i = home(key);
    while (slots_[i].used) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  // Backward shift: pull each later slot of the probe run into the hole
  // unless its home lies cyclically after the hole.
  void erase_slot(std::size_t hole) {
    for (std::size_t i = (hole + 1) & mask_; slots_[i].used; i = (i + 1) & mask_) {
      const std::size_t slot_home = home(slots_[i].key);
      if (((i - slot_home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const int bits = old.empty() ? kInitialBits : 65 - shift_;
    slots_.assign(std::size_t{1} << bits, Slot{});
    mask_ = slots_.size() - 1;
    shift_ = 64 - bits;
    for (const Slot& slot : old) {
      if (slot.used) {
        slots_[free_slot_for(slot.key)] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace pvm

#endif  // PVM_SRC_SIM_FLAT_MAP_H_
