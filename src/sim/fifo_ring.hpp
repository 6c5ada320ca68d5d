// A first-in first-out queue in a power-of-two ring.
//
// The event queue keeps a delivery stream's (time, seq) keys in one and
// a Link keeps the payloads of those deliveries in another, pushed and
// popped in step, and a TCP sender keeps its outstanding segments'
// records in one. Nothing is allocated until the first push, so an
// object that never uses its ring (most links of a model-checker branch)
// costs no allocation. A copy is a value copy, which is what a
// simulation snapshot takes.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace pftk::sim {

/// FIFO of default-constructible, copyable values; amortized O(1) push
/// and O(1) pop. Capacity doubles when full and is never given back.
template <typename T>
class FifoRing {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The oldest value. Precondition: non-empty.
  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }

  /// The newest value. Precondition: non-empty.
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  /// The i-th oldest value. Precondition: i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) {
      grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  /// Drops the oldest value. Precondition: non-empty.
  void pop_front() noexcept {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pftk::sim
