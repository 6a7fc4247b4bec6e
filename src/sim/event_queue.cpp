#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace tcppr::sim {

HeapQueue::~HeapQueue() {
  ::operator delete(keys_, std::align_val_t{64});
  ::operator delete(aux_, std::align_val_t{64});
}

void HeapQueue::grow() {
  const std::size_t new_capacity = capacity_ == 0 ? 1024 : capacity_ * 2;
  auto* new_keys = static_cast<std::int64_t*>(::operator new(
      (new_capacity + kPad) * sizeof(std::int64_t), std::align_val_t{64}));
  auto* new_aux = static_cast<Aux*>(::operator new(
      (new_capacity + kPad) * sizeof(Aux), std::align_val_t{64}));
  if (count_ > 0) {
    std::memcpy(new_keys + kPad, keys_ + head_ + kPad,
                count_ * sizeof(std::int64_t));
    std::memcpy(new_aux + kPad, aux_ + head_ + kPad, count_ * sizeof(Aux));
  }
  head_ = 0;
  ::operator delete(keys_, std::align_val_t{64});
  ::operator delete(aux_, std::align_val_t{64});
  keys_ = new_keys;
  aux_ = new_aux;
  capacity_ = new_capacity;
}

void HeapQueue::compact() {
  if (head_ == 0) return;
  std::memmove(keys_ + kPad, keys_ + head_ + kPad,
               count_ * sizeof(std::int64_t));
  std::memmove(aux_ + kPad, aux_ + head_ + kPad, count_ * sizeof(Aux));
  head_ = 0;
}

void HeapQueue::push(const QueuedEvent& event) {
  if (head_ + count_ == capacity_) {
    // Out of room at the tail: reclaim the popped prefix first, grow only
    // when the live range really fills the buffer.
    if (head_ > 0) {
      compact();
    } else {
      grow();
    }
  }
  const std::int64_t key = event.time.as_nanos();
  if (sorted_) {
    const std::size_t back = head_ + count_ - 1 + kPad;
    const bool in_order =
        count_ == 0 || key > keys_[back] ||
        (key == keys_[back] && event.seq >= aux_[back].seq);
    if (in_order) {
      const std::size_t tail = head_ + count_ + kPad;
      keys_[tail] = key;
      aux_[tail] = Aux{event.seq, event.id};
      ++count_;
      return;
    }
    // First out-of-order push: the live range is sorted ascending, which
    // is already a valid min-heap once re-rooted at logical 0.
    compact();
    sorted_ = false;
  }
  // Sift up with a hole: shift parents down, place the event once.
  std::size_t n = count_++;
  while (n > 0) {
    const std::size_t pp = (n - 1) / kArity + kPad;
    const bool below_parent =
        key < keys_[pp] || (key == keys_[pp] && event.seq < aux_[pp].seq);
    if (!below_parent) break;
    keys_[n + kPad] = keys_[pp];
    aux_[n + kPad] = aux_[pp];
    n = pp - kPad;
  }
  keys_[n + kPad] = key;
  aux_[n + kPad] = Aux{event.seq, event.id};
}

void HeapQueue::sift_down(std::size_t n, std::int64_t key, Aux aux) {
  // Sift down with a hole: at each level pick the smallest of the (one
  // cache line of) children, move it up if it beats the placed entry, else
  // stop.
  for (;;) {
    const std::size_t first = n * kArity + 1;
    if (first >= count_) break;
    if (first * kArity + 1 < count_) {
      // The grandchildren of n occupy 8 consecutive cache lines starting
      // at physical 8*(first+1); one of them is the next level's children
      // block. Prefetching the whole span overlaps the next level's miss
      // with this level's compare instead of serializing them.
      const std::size_t gstart = (first + 1) * kArity;
      for (std::size_t k = 0; k < kArity; ++k) {
        __builtin_prefetch(&keys_[gstart + k * kArity]);
      }
    }
    const std::size_t end = std::min(first + kArity, count_);
    std::size_t best = first + kPad;
    for (std::size_t c = first + 1 + kPad; c < end + kPad; ++c) {
      if (less(c, best)) best = c;
    }
    const bool below =
        keys_[best] < key || (keys_[best] == key && aux_[best].seq < aux.seq);
    if (!below) break;
    keys_[n + kPad] = keys_[best];
    aux_[n + kPad] = aux_[best];
    n = best - kPad;
  }
  keys_[n + kPad] = key;
  aux_[n + kPad] = aux;
}

void HeapQueue::heapify() {
  if (count_ < 2) return;
  // Every internal node, the deepest first: node (count_ - 2) / kArity is
  // the parent of the last entry.
  for (std::size_t n = (count_ - 2) / kArity + 1; n-- > 0;) {
    sift_down(n, keys_[n + kPad], aux_[n + kPad]);
  }
}

std::optional<QueuedEvent> HeapQueue::pop_min() {
  if (count_ == 0) return std::nullopt;
  if (sorted_) {
    const std::size_t root = head_ + kPad;
    const QueuedEvent top{TimePoint::from_nanos(keys_[root]), aux_[root].seq,
                          aux_[root].id};
    ++head_;
    if (--count_ == 0) head_ = 0;
    return top;
  }
  const QueuedEvent top{TimePoint::from_nanos(keys_[kPad]), aux_[kPad].seq,
                        aux_[kPad].id};
  const std::int64_t last_key = keys_[count_ - 1 + kPad];
  const Aux last_aux = aux_[count_ - 1 + kPad];
  --count_;
  if (count_ == 0) {
    sorted_ = true;  // drained: the next burst can run flat again
  } else {
    sift_down(0, last_key, last_aux);
  }
  return top;
}

}  // namespace tcppr::sim
