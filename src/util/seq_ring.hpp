// Seq-indexed sliding window: one slot per sequence number in a
// power-of-two ring, the slot for seq s at s & (capacity - 1).
//
// Both ends of a flow keep per-segment state over a contiguous, forward
// sliding range of sequence numbers — the TCP-PR sender over
// [snd_una, snd_nxt), the receiver over [rcv_next, highest buffered + 1).
// The owner tracks that live range and passes it in; sliding it forward
// moves no data, and only resizing relocates the live slots. Storage is
// allocated on first use, doubles when the live range outgrows it and
// halves when the live range falls below a quarter of it, so a window that
// has reached its working size never allocates again and a window that
// collapsed does not pin its peak footprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "util/check.hpp"

namespace tcppr::util {

template <typename T, std::size_t kMinCapacity>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(kMinCapacity > 0 && (kMinCapacity & (kMinCapacity - 1)) == 0,
                "capacity must be a power of two");

 public:
  using Seq = std::int64_t;

  std::size_t capacity() const { return capacity_; }

  // The slot of `s`; valid while s is inside [begin, begin + capacity()).
  T& operator[](Seq s) {
    TCPPR_DCHECK(capacity_ > 0);
    return slots_[static_cast<std::size_t>(s) & (capacity_ - 1)];
  }
  const T& operator[](Seq s) const {
    TCPPR_DCHECK(capacity_ > 0);
    return slots_[static_cast<std::size_t>(s) & (capacity_ - 1)];
  }

  // Makes room for seq `s` >= begin, doubling until [begin, s] fits. The
  // live slots [begin, end) keep their values; every other slot is T{}.
  void reserve(Seq begin, Seq end, Seq s) {
    TCPPR_DCHECK(begin <= s && begin <= end);
    const auto need = static_cast<std::size_t>(s - begin) + 1;
    if (need <= capacity_) return;
    std::size_t cap = capacity_ == 0 ? kMinCapacity : capacity_;
    while (cap < need) cap *= 2;
    resize(cap, begin, end);
  }

  // Halves the ring while the live range [begin, end) fills less than a
  // quarter of it (never below kMinCapacity).
  void shrink_to_fit(Seq begin, Seq end) {
    const std::size_t live = end > begin ? static_cast<std::size_t>(end - begin)
                                         : 0;
    std::size_t cap = capacity_;
    while (cap > kMinCapacity && live < cap / 4) cap /= 2;
    if (cap != capacity_) resize(cap, begin, end);
  }

  // Sets every slot to T{} (the capacity stays).
  void clear() {
    for (std::size_t i = 0; i < capacity_; ++i) slots_[i] = T{};
  }

 private:
  void resize(std::size_t cap, Seq begin, Seq end) {
    auto fresh = std::make_unique<T[]>(cap);  // value-initialized: T{}
    for (Seq s = begin; s < end; ++s) {
      fresh[static_cast<std::size_t>(s) & (cap - 1)] = (*this)[s];
    }
    slots_ = std::move(fresh);
    capacity_ = cap;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t capacity_ = 0;
};

}  // namespace tcppr::util
