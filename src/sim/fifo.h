// Growable ring-buffer FIFO that allocates nothing until its first push.
//
// `Resource` keeps two queues — parked waiters and outstanding hold start
// times — and the shadow engine creates tens of thousands of Resources
// (per-gfn rmap locks, per-page pt locks) that are never contended. A
// `std::deque` allocates its map and first block at construction, about
// 576 B per queue; this buffer is 24 bytes inline and empty until used.
// Capacity is a power of two and doubles when full; it never shrinks.
// Elements must be default-constructible and are copied, so keep them small.

#ifndef PVM_SRC_SIM_FIFO_H_
#define PVM_SRC_SIM_FIFO_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace pvm {

template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Oldest element. Precondition: !empty().
  const T& front() const { return buf_[head_]; }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      grow();
    }
    buf_[(head_ + size_) & (capacity_ - 1)] = value;
    ++size_;
  }

  // Drops the oldest element. Precondition: !empty().
  void pop_front() {
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // Read-only iteration, oldest first.
  class const_iterator {
   public:
    const_iterator(const Fifo* fifo, std::uint32_t index) : fifo_(fifo), index_(index) {}
    const T& operator*() const {
      return fifo_->buf_[(fifo_->head_ + index_) & (fifo_->capacity_ - 1)];
    }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const Fifo* fifo_;
    std::uint32_t index_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr std::uint32_t kInitialCapacity = 2;

  void grow() {
    const std::uint32_t capacity = capacity_ == 0 ? kInitialCapacity : 2 * capacity_;
    auto buf = std::make_unique<T[]>(capacity);
    for (std::uint32_t i = 0; i < size_; ++i) {
      buf[i] = buf_[(head_ + i) & (capacity_ - 1)];
    }
    buf_ = std::move(buf);
    capacity_ = capacity;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace pvm

#endif  // PVM_SRC_SIM_FIFO_H_
