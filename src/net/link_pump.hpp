// LinkPump: per-scheduler carrier for batched packet ops.
//
// The unbatched engine schedules one event per packet op — a transmission
// completion, then a delivery — so events/packet >= 2 per hop. The pump
// inverts that: links register their op streams here, each op keyed with
// the exact (time, tie-break sequence) its dedicated event would have
// carried (the link mints the sequence at the same program point with
// Scheduler::mint_seq), and the pump keeps exactly ONE scheduler event
// parked at the earliest key. When it fires, the pump executes the
// earliest op and then keeps going: as long as the earliest remaining op
// would be the very next thing the scheduler ran anyway
// (Scheduler::would_fire_next) it advances the clock to that op's key
// (advance_batched_op) and executes it inside the same event. Every op
// still executes at exactly the (time, seq) position it holds in the
// unbatched schedule, so delivery order — and therefore the determinism
// oracle's kDeliver stream — is byte-identical; only the number of
// scheduler events shrinks.
//
// Index structure: a PumpIndex holding exactly one slot per non-empty op
// stream, keyed by the stream's head. The running op's slot is re-keyed in
// place from Link::pump_op_key when the op returns (or removed when its
// stream emptied), and a jittered delivery that overtakes its ring head
// lowers its stream's key in place — so the index never holds a stale
// entry and the earliest op is always the root.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/check.hpp"

namespace tcppr::net {

class Link;

// Key of a pump op: the (time, tie-break sequence) of the scheduler event
// the op replaces.
struct PumpKey {
  sim::TimePoint at;
  std::uint64_t seq = 0;

  friend bool operator<(const PumpKey& a, const PumpKey& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
};

enum class PumpOp : std::uint32_t { kTxComplete = 0, kDeliver = 1 };

// Process-wide toggle for the batched hot path, read by Network at
// construction (default on). Runs built with it off schedule one event per
// packet op, exactly the pre-batching engine — the comparison baseline the
// equivalence suite and benches use.
void set_hot_path_batching(bool on);
bool hot_path_batching();

// Position-indexed binary min-heap over stream ids: at most one slot per
// stream, ordered by PumpKey. pos_ maps a stream to its heap position, so
// a stream's key moves in place (one sift in either direction) instead of
// being pushed again. Capacity is reserved as streams are added, so a warm
// index never allocates.
class PumpIndex {
 public:
  struct Slot {
    PumpKey key;
    std::uint32_t stream = 0;
  };

  // Makes n more stream ids available, all absent. Reserves
  // geometrically, so registering L links costs O(L).
  void add_streams(std::size_t n) {
    pos_.resize(pos_.size() + n, kAbsent);
    if (heap_.capacity() < pos_.size()) heap_.reserve(2 * pos_.size());
  }

  bool contains(std::uint32_t stream) const {
    return pos_[stream] != kAbsent;
  }
  // Key of a present `stream`.
  const PumpKey& key(std::uint32_t stream) const {
    TCPPR_DCHECK(contains(stream));
    return heap_[pos_[stream]].key;
  }
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  // The earliest slot; the index must not be empty.
  const Slot& top() const {
    TCPPR_DCHECK(!heap_.empty());
    return heap_[0];
  }

  // `stream` must be absent.
  void insert(std::uint32_t stream, PumpKey key) {
    TCPPR_DCHECK(!contains(stream));
    const Slot s{key, stream};
    heap_.push_back(s);
    sift_up(heap_.size() - 1, s);
  }
  // Re-keys a present `stream` in place, earlier or later.
  void update(std::uint32_t stream, PumpKey key) {
    const std::size_t i = pos_[stream];
    TCPPR_DCHECK(i != kAbsent);
    const Slot s{key, stream};
    if (i > 0 && key < heap_[(i - 1) / 2].key) {
      sift_up(i, s);
    } else {
      sift_down(i, s);
    }
  }
  // Removes a present `stream`.
  void remove(std::uint32_t stream) {
    const std::size_t i = pos_[stream];
    TCPPR_DCHECK(i != kAbsent);
    pos_[stream] = kAbsent;
    const Slot last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // removed the last slot
    if (i > 0 && last.key < heap_[(i - 1) / 2].key) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }
  void clear() {
    for (const Slot& s : heap_) pos_[s.stream] = kAbsent;
    heap_.clear();
  }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  void place(std::size_t i, const Slot& s) {
    heap_[i] = s;
    pos_[s.stream] = static_cast<std::uint32_t>(i);
  }
  // Both sifts move a hole from `i` and drop `s` into it once; `s` is a
  // copy because the hole overwrites slots.
  void sift_up(std::size_t i, Slot s) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!(s.key < heap_[parent].key)) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, s);
  }
  void sift_down(std::size_t i, Slot s) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].key < heap_[child].key) ++child;
      if (!(heap_[child].key < s.key)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, s);
  }

  std::vector<Slot> heap_;
  std::vector<std::uint32_t> pos_;  // stream -> heap position or kAbsent
};

class LinkPump {
 public:
  struct Stats {
    std::uint64_t events = 0;  // carrier events fired
    std::uint64_t ops = 0;     // packet ops executed (>= events)
  };

  explicit LinkPump(sim::Scheduler& sched) : sched_(&sched) {}
  LinkPump(const LinkPump&) = delete;
  LinkPump& operator=(const LinkPump&) = delete;
  ~LinkPump();

  sim::Scheduler& scheduler() { return *sched_; }

  // Registers a link and returns the id it must pass to push_op. Links on
  // this pump must be bound to the same scheduler.
  std::uint32_t add_link(Link* link);

  // A new head appeared on `link_id`'s op stream: the stream gets its slot,
  // or an overtaken head's slot moves earlier. Ignored for the stream whose
  // op is running (the pump re-keys it when the op returns). Outside a
  // batch the parked carrier event is moved earlier when the new head
  // precedes it; inside a batch the main loop re-parks after draining.
  void push_op(PumpKey k, std::uint32_t link_id, PumpOp op);

  const Stats& stats() const { return stats_; }
  std::size_t link_count() const { return links_.size(); }
  // Op streams currently indexed: at most two per registered link.
  std::size_t indexed() const { return index_.size(); }

 private:
  static constexpr std::uint32_t kNoStream = UINT32_MAX;
  static std::uint32_t stream_of(std::uint32_t link_id, PumpOp op) {
    return (link_id << 1) | static_cast<std::uint32_t>(op);
  }

  void on_event();
  void park(PumpKey k);

  sim::Scheduler* sched_;
  std::vector<Link*> links_;
  PumpIndex index_;  // stream id = (link_id << 1) | op
  std::uint32_t running_ = kNoStream;  // stream whose op is executing
  sim::EventId parked_{};
  PumpKey parked_key_{};
  bool in_batch_ = false;
  Stats stats_;
};

}  // namespace tcppr::net
