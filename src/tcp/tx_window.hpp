// Per-segment transmission records of the window-based senders (the Reno
// and SACK families): one util::SeqRing slot per seq over [snd_una,
// snd_max), where snd_max is one past the highest segment ever sent. A
// go-back-N timeout rewinds snd_nxt but not snd_max, so the records above
// the rewound snd_nxt survive and their resends count as retransmissions.
// The SACK scoreboard is mark bits on the same records, with a running
// count per mark so that pipe() stays O(1).
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.hpp"
#include "tcp/types.hpp"
#include "util/check.hpp"
#include "util/seq_ring.hpp"

namespace tcppr::tcp {

enum TxMark : std::uint8_t { kSacked = 1, kLost = 2, kRtxInFlight = 4 };
inline constexpr std::uint8_t kAllMarks = kSacked | kLost | kRtxInFlight;

struct TxRecord {
  sim::TimePoint last_tx;
  std::int32_t tx_count = 0;  // 0: never sent (a free slot)
  std::uint8_t marks = 0;     // TxMark bits
};
static_assert(sizeof(TxRecord) <= 16);  // 2^20 flows hold a ring each

class TxWindow {
 public:
  SeqNo max() const { return max_; }
  const TxRecord& operator[](SeqNo s) const { return ring_[s]; }
  bool has(SeqNo s, TxMark m) const { return (ring_[s].marks & m) != 0; }
  std::int64_t count(TxMark m) const { return counts_[m >> 1]; }

  // Records a transmission of `seq` at `at`; true when it was sent before.
  // After a cumulative ACK passed a go-back-N rewind, sends below `una`
  // are fresh and not stored: the next ACK would release them unread.
  bool record_tx(SeqNo una, SeqNo seq, sim::TimePoint at) {
    if (seq < una) return false;
    if (seq >= max_) {
      ring_.reserve(una, max_, seq);
      max_ = seq + 1;
    }
    TxRecord& r = ring_[seq];
    r.last_tx = at;
    return r.tx_count++ > 0;
  }

  void mark(SeqNo s, TxMark m) {
    TxRecord& r = ring_[s];
    if ((r.marks & m) == 0) ++counts_[m >> 1];
    r.marks |= m;
  }
  void unmark(SeqNo s, std::uint8_t marks) {
    TxRecord& r = ring_[s];
    const int hit = r.marks & marks;
    for (int b = 0; b < 3; ++b) counts_[b] -= (hit >> b) & 1;
    r.marks &= static_cast<std::uint8_t>(~marks);
  }
  // Clears `marks` on every record of [una, snd_max).
  void unmark_all(SeqNo una, std::uint8_t marks) {
    for (SeqNo s = una; s < max_; ++s) unmark(s, marks);
  }

  // Moves the window's start from `una` to `to`, resetting every slot the
  // cumulative ACK passed at once: a slot aliases every capacity() seqs,
  // and the next send at the window's far edge may land in it.
  void release(SeqNo una, SeqNo to) {
    TCPPR_CHECK(to <= max_);  // a receiver cannot ack unsent data
    for (SeqNo s = una; s < to; ++s) {
      unmark(s, kAllMarks);
      ring_[s] = TxRecord{};
    }
    ring_.shrink_to_fit(to, max_);
  }

  // Records in [lo, hi) that hold a transmission.
  std::int64_t sent_in(SeqNo lo, SeqNo hi) const {
    std::int64_t n = 0;
    for (SeqNo s = lo; s < hi; ++s) n += ring_[s].tx_count > 0;
    return n;
  }

 private:
  util::SeqRing<TxRecord, 8> ring_;
  SeqNo max_ = 0;  // snd_max
  std::array<std::int32_t, 3> counts_{};  // by mark: 1, 2, 4 -> 0, 1, 2
};

}  // namespace tcppr::tcp
