// LinkPump: per-scheduler carrier for packet ops.
//
// Every packet op — a transmission completion, then a delivery — runs
// here, not as a scheduler event of its own. Links register their op
// streams, each op keyed with a (time, tie-break sequence) the link mints
// with Scheduler::mint_seq exactly as if it scheduled an event, and the
// pump keeps exactly ONE scheduler event parked at the earliest key. A new
// head that precedes it cancels it and parks a new one; the scheduler's
// purge bounds the cancelled entries this leaves in its heap. When the
// carrier fires, the pump executes the earliest op and then keeps going:
// as long as the earliest remaining op would be the very next thing the
// scheduler ran anyway (Scheduler::would_fire_next) it advances the clock
// to that op's key (advance_batched_op) and executes it inside the same
// event. Every op executes at exactly its (time, seq) position in the
// scheduler's total order, interleaved with the other events as if it
// were one; only the number of scheduler events shrinks
// (tests/link_pump_test.cpp checks the order on random networks).
//
// Index structure: a PumpIndex, a tournament tree with one leaf per op
// stream holding its head's key. The running op's leaf is re-keyed from
// Link::pump_op_key when the op returns (made absent if its stream
// emptied), and a jittered delivery that overtakes its ring head lowers
// its stream's key in place — so the index never holds a stale entry and
// the earliest op is always the root.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/check.hpp"

namespace tcppr::net {

class Link;

// Key of a pump op: its (time, tie-break sequence) in the scheduler's
// order.
struct PumpKey {
  sim::TimePoint at;
  std::uint64_t seq = 0;

  friend bool operator<(const PumpKey& a, const PumpKey& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
};

enum class PumpOp : std::uint32_t { kTxComplete = 0, kDeliver = 1 };

// Winner (tournament) tree over fixed leaves, one per stream id: leaf s
// holds stream s's key or the absent key (all ones, after every real key),
// and each internal node the earlier of its children's keys with its
// stream, so the root is the next op. A key packs (time ns, sign bit
// flipped) << 64 | seq into one unsigned 128-bit integer, so comparing is
// branch-free, and every change writes a leaf and replays its path to the
// root. add_streams only counts streams; the first insert past the leaves
// sizes the tree to the next power of two (DESIGN.md §4.6).
class PumpIndex {
 public:
  struct Slot {
    PumpKey key;
    std::uint32_t stream = 0;
  };

  // Makes n more stream ids available, all absent.
  void add_streams(std::size_t n) { streams_ += n; }

  bool contains(std::uint32_t stream) const {
    TCPPR_DCHECK(stream < streams_);
    return stream < leaves_ && key_[leaves_ + stream] != kAbsent;
  }
  // Key of a present `stream`.
  PumpKey key(std::uint32_t stream) const {
    TCPPR_DCHECK(contains(stream));
    return unpack(key_[leaves_ + stream]);
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // The earliest slot; the index must not be empty.
  Slot top() const {
    TCPPR_DCHECK(!empty());
    return Slot{unpack(key_[1]), id_[1]};
  }

  // `stream` must be absent.
  void insert(std::uint32_t stream, PumpKey key) {
    TCPPR_DCHECK(!contains(stream));
    if (stream >= leaves_) grow();
    ++size_;
    replay(stream, pack(key));
  }
  // Re-keys a present `stream`, earlier or later.
  void update(std::uint32_t stream, PumpKey key) {
    TCPPR_DCHECK(contains(stream));
    replay(stream, pack(key));
  }
  // Removes a present `stream`.
  void remove(std::uint32_t stream) {
    TCPPR_DCHECK(contains(stream));
    --size_;
    replay(stream, kAbsent);
  }

 private:
  using Packed = unsigned __int128;
  static constexpr Packed kAbsent = ~Packed{0};
  static constexpr Packed kSignBit = Packed{1} << 127;

  static Packed pack(PumpKey k) {
    const auto at = static_cast<std::uint64_t>(k.at.as_nanos());
    return (Packed{at} << 64 | k.seq) ^ kSignBit;
  }
  static PumpKey unpack(Packed p) {
    p ^= kSignBit;
    const auto at = static_cast<std::int64_t>(p >> 64);
    return {sim::TimePoint::from_nanos(at), static_cast<std::uint64_t>(p)};
  }

  // Node i's children are 2i and 2i + 1, the root is node 1 and stream s's
  // leaf node leaves_ + s. The winner climbs, meeting a sibling per level;
  // its stream is an indexed load, not a branch.
  void replay(std::uint32_t stream, Packed k) {
    std::size_t i = leaves_ + stream;
    key_[i] = k;
    for (; i > 1; i >>= 1) {
      const Packed sibling = key_[i ^ 1];
      const bool take = sibling < k;
      k = take ? sibling : k;
      key_[i >> 1] = k;
      id_[i >> 1] = id_[i ^ static_cast<std::size_t>(take)];
    }
  }
  void grow();

  std::vector<Packed> key_;        // by node; node 0 unused
  std::vector<std::uint32_t> id_;  // by node: the stream its key came from
  std::size_t leaves_ = 0;
  std::size_t streams_ = 0;
  std::size_t size_ = 0;           // present streams
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
