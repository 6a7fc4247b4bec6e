// The scheduler's pending-event set: a cache-friendly 8-ary implicit heap
// ordered by (time, insertion sequence), so ties break FIFO and a run is
// deterministic. The queue knows nothing of cancellation: the scheduler
// skips cancelled entries when they reach the front and, once they
// outnumber the live ones, drops them all through retain().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "sim/time.hpp"

namespace tcppr::sim {

struct QueuedEvent {
  TimePoint time;
  std::uint64_t seq = 0;  // insertion order; ties break FIFO
  std::uint64_t id = 0;

  friend bool operator<(const QueuedEvent& a, const QueuedEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

// Implicit d-ary min-heap (d = 8), stored as parallel key/payload arrays.
// The sift loops compare 8-byte time keys; the (seq, id) payload rides in a
// parallel array touched only on moves, and the FIFO tie-break consults seq
// only when two times are exactly equal (rare in a simulation where most
// events carry distinct transmission/propagation offsets). Logical node n
// lives at physical index n + 7 in a 64-byte-aligned buffer, so every
// 8-child sibling group occupies exactly one cache line: sift-down costs
// one cache-missing key line per level and the depth is log8 rather than
// log2 — the dominant cost at 10^5+ pending events.
//
// Monotone runs are recognized and kept flat: while pushes arrive in
// nondecreasing (time, seq) order — the shape of a bulk scheduling burst —
// the array simply stays sorted (O(1) append, no sifting) and pops stream
// from the front through a cursor with perfect locality. A sorted array is
// already a valid min-heap, so the first out-of-order push switches to heap
// mode for the cost of one compaction memmove; heap mode persists until the
// queue drains empty.
class HeapQueue {
 public:
  HeapQueue() = default;
  HeapQueue(const HeapQueue&) = delete;
  HeapQueue& operator=(const HeapQueue&) = delete;
  ~HeapQueue();

  void push(const QueuedEvent& event);
  // Removes and returns the earliest event, or nullopt when empty.
  std::optional<QueuedEvent> pop_min();
  // Removes the earliest event; the queue must not be empty. The run loop
  // peeks, then drops: a sorted run only advances its head.
  void drop_min() {
    if (sorted_) {
      ++head_;
      if (--count_ == 0) head_ = 0;
    } else {
      pop_min();
    }
  }
  // Returns the earliest event without removing it, or nullopt when empty.
  std::optional<QueuedEvent> peek_min() const {
    if (count_ == 0) return std::nullopt;
    const std::size_t root = head_ + kPad;
    return QueuedEvent{TimePoint::from_nanos(keys_[root]), aux_[root].seq,
                       aux_[root].id};
  }
  // Discards all pending entries. The scheduler calls this when every
  // remaining entry is known to be a cancelled stale, so draining them one
  // pop at a time would be wasted sift work.
  void clear() {
    count_ = 0;
    head_ = 0;
    sorted_ = true;
  }
  // Keeps only the entries whose id satisfies `keep`, in O(size): one
  // compacting pass, then, in heap mode, a bottom-up re-heapify. A sorted
  // run stays sorted. Pop order is unchanged, since it follows the
  // (time, seq) order alone.
  template <typename Keep>
  void retain(Keep keep) {
    std::size_t out = kPad;
    const std::size_t end = head_ + count_ + kPad;
    for (std::size_t i = head_ + kPad; i < end; ++i) {
      if (!keep(aux_[i].id)) continue;
      keys_[out] = keys_[i];
      aux_[out] = aux_[i];
      ++out;
    }
    head_ = 0;
    count_ = out - kPad;
    if (count_ == 0) {
      sorted_ = true;
    } else if (!sorted_) {
      heapify();
    }
  }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // True while the queue is in the flat sorted-run representation (for
  // tests; callers cannot observe the mode through push/pop ordering).
  bool in_sorted_run() const { return sorted_; }

 private:
  static constexpr std::size_t kArity = 8;
  // Physical offset of the root: logical n maps to physical n + kPad, which
  // puts the children block {8n+1 .. 8n+8} at physical 8(n+1) — a cache
  // line boundary when the key buffer is 64-byte aligned.
  static constexpr std::size_t kPad = kArity - 1;

  struct Aux {
    std::uint64_t seq;
    std::uint64_t id;
  };

  // (time, seq) strict weak order over physical indices a, b.
  bool less(std::size_t a, std::size_t b) const {
    if (keys_[a] != keys_[b]) return keys_[a] < keys_[b];
    return aux_[a].seq < aux_[b].seq;
  }
  void grow();
  // Slides the live range back to logical 0 (heap root position).
  void compact();
  // Heap mode: places (key, aux) at or below logical node n, moving the
  // smaller children up into the hole.
  void sift_down(std::size_t n, std::int64_t key, Aux aux);
  // Heap mode: restores the heap order over all count_ entries (Floyd).
  void heapify();

  std::int64_t* keys_ = nullptr;  // time in ns; 64-byte aligned
  Aux* aux_ = nullptr;
  std::size_t count_ = 0;     // live entries
  std::size_t head_ = 0;      // logical index of the minimum; 0 in heap mode
  std::size_t capacity_ = 0;  // physical capacity beyond the pad
  bool sorted_ = true;        // flat sorted-run mode vs heap mode
};

}  // namespace tcppr::sim
