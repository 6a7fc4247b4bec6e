// TCP-PR — the paper's contribution (Section 3, Table 1).
//
// Loss detection uses no duplicate-ACK information at all. Every
// transmitted packet carries a timestamp and a snapshot of cwnd; a packet
// still unacknowledged after mxrtt = beta * ewrtt is declared dropped,
// where ewrtt is an exponentially *decaying maximum* of observed RTTs:
//
//    ewrtt = max(alpha^(1/cwnd) * ewrtt, sample_rtt)          (eq. 1)
//
// alpha^(1/cwnd) is computed with two Newton iterations exactly as the
// paper's Linux implementation does (footnote 5). On a detected drop the
// window is halved from the cwnd *snapshot taken when the dropped packet
// was sent*, and a `memorize` snapshot of the outstanding packets ensures
// one halving per loss burst (the NewReno/SACK-style "one reaction per
// congestion event"). Extreme losses (more than cwnd/2 + 1 drops in a
// burst, Section 3.2) reset cwnd to one, raise mxrtt to at least one
// second, pause sending for mxrtt, and double mxrtt on further drops —
// emulating the coarse-timeout exponential backoff of NewReno/SACK.
//
// Only the sender changes: the receiver is any cumulative-ACK TCP receiver
// (SACK options, if present, are ignored).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tcp/sender_base.hpp"
#include "util/ring_deque.hpp"
#include "util/seq_ring.hpp"

namespace tcppr::core {

using tcp::FlowId;
using tcp::SeqNo;

struct TcpPrConfig {
  double alpha = 0.995;  // ewrtt memory factor, per-RTT units (0 < a < 1)
  double beta = 3.0;     // mxrtt = beta * ewrtt (> 1)
  int newton_iterations = 2;  // footnote 5: n = 2 in the reference code
  // Timeout for packets sent before any RTT estimate exists (the spec
  // leaves this open; 3 s matches the conventional initial RTO).
  sim::Duration initial_timeout = sim::Duration::seconds(3.0);
  bool enable_extreme_loss_handling = true;  // Section 3.2
  sim::Duration extreme_loss_floor = sim::Duration::seconds(1.0);
  sim::Duration max_backoff = sim::Duration::seconds(64.0);

  // Interpretation choice (documented in DESIGN.md §6): when the first drop
  // of a burst is detected, refresh the time-stamps of the packets captured
  // in the memorize snapshot. Without this, the cumulative-ACK stall behind
  // the lost packet pushes the *entire* flight past its deadline before the
  // recovery ACK returns, causing a window of spurious retransmissions and
  // misfiring the extreme-loss rule on ordinary single losses. Genuinely
  // lost packets are still detected one mxrtt after the refresh (they are
  // never acknowledged), so burst handling and §3.2 semantics survive.
  bool restamp_on_congestion_event = true;

  // Interpretation choice (DESIGN.md §6): how "extreme losses" (Section
  // 3.2) are recognized. The paper counts packets removed from memorize by
  // drops (cburst > cwnd/2+1), but with cumulative ACKs that counter also
  // absorbs received-but-stalled packets, so it overcounts enormously and
  // fires on ordinary losses. The condition §3.2 emulates — NewReno/SACK
  // stalling out of fast recovery into a coarse timeout — occurs precisely
  // when a *retransmission is itself lost*; that is the default trigger.
  // The literal counter rule remains available for ablation.
  bool extreme_loss_on_lost_retransmission = true;
  // Lost transmissions of one segment before the backoff engages: 3 means
  // original + first retransmission + second retransmission all timed out.
  // (The first retransmission regularly races a still-full queue because
  // of the detection latency, so reacting to attempt 2 would misfire on
  // every deep sawtooth; NewReno likewise only reaches exponential backoff
  // after an RTO, i.e. after its own repair failed.)
  int extreme_loss_rtx_drops = 3;
  // §3.2 counter rule, measured against the memorize snapshot ("half or
  // more packets lost within a window"): catches mass slow-start crashes
  // whose go-back-N repair would otherwise storm the queues. With
  // re-stamping and episode deferral in place, the counter only absorbs
  // stall artifacts when the repair itself has outlived mxrtt — the same
  // condition under which NewReno's Impatient variant escapes to an RTO.
  bool extreme_loss_on_burst_count = true;

  // Interpretation choice (DESIGN.md §6): count duplicate ACKs as window
  // credits. A duplicate ACK proves one segment left the network, and
  // Linux's in-flight accounting (packets_out - sacked_out, where
  // sacked_out counts dupacks on SACK-less connections) lets new data flow
  // during the cumulative-ACK stall behind a hole. Loss detection remains
  // purely timer-based; without this, the sender sits idle for
  // (mxrtt - RTT) after every drop, which starves it against SACK in the
  // many-flow regimes of the paper's fairness experiments.
  bool dupack_window_credit = true;

  // --- ablations (DESIGN.md §5); all off for the paper's algorithm ------
  bool ablate_halve_current_cwnd = false;  // halve cwnd, not cwnd(n)
  bool ablate_no_memorize = false;         // halve on every drop
  bool ablate_mean_ewrtt = false;          // EWMA mean instead of decaying max

  // One message per violated rule of the sender's constructor (which
  // aborts on them); empty when the configuration is usable. Front ends
  // call this to turn a bad parameter into a usage error.
  std::vector<std::string> validate() const;
};

class TcpPrSender final : public tcp::SenderBase {
 public:
  TcpPrSender(net::Network& network, net::NodeId local, net::NodeId remote,
              FlowId flow, tcp::TcpConfig config = {},
              TcpPrConfig pr_config = {});

  double cwnd() const override { return cwnd_; }
  const char* algorithm() const override { return "tcp-pr"; }
  tcp::SenderInvariantView invariant_view() const override;

  // TCP-PR-specific invariants for src/validate: the detection envelope
  // (mxrtt >= ewrtt) and the drop-declaration deadline oracle.
  struct PrInvariantView {
    double mxrtt_s = 0;
    double ewrtt_s = 0;
    bool in_backoff = false;
    // Declarations made before sent_at + mxrtt elapsed. Counted only when
    // validation is enabled; the checker asserts it stays zero.
    std::uint64_t early_drop_declarations = 0;
  };
  PrInvariantView pr_invariant_view() const {
    return {mxrtt().as_seconds(), ewrtt_s_, in_backoff_,
            early_drop_declarations_};
  }
  // Arms the in-algorithm deadline oracle (one predictable branch per
  // declared drop when off — the src/obs discipline).
  void enable_validation() { validate_ = true; }

  void rebind_scheduler(sim::Scheduler& shard) override {
    tcp::SenderBase::rebind_scheduler(shard);
    drop_timer_.rebind(shard);
    drop_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_node()));
    unblock_timer_.rebind(shard);
    unblock_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_node()));
  }

  enum class Mode { kSlowStart, kCongestionAvoidance };
  Mode mode() const { return mode_; }
  double ssthresh() const { return ssthr_; }
  // Current maximum-RTT estimate driving drop detection.
  sim::Duration mxrtt() const;
  double ewrtt_seconds() const { return ewrtt_s_; }
  std::size_t outstanding() const { return to_be_ack_count_; }
  std::size_t memorize_size() const { return memorize_count_; }
  std::size_t pending_retransmits() const { return to_be_sent_count_; }
  bool in_backoff() const { return in_backoff_; }
  int burst_drop_count() const { return cburst_; }

  // alpha^(1/cwnd) via Newton's method (footnote 5); exposed for tests.
  static double newton_alpha_root(double alpha, double cwnd, int iterations);

 protected:
  void on_start() override;
  void on_ack_packet(const net::Packet& ack) override;

 private:
  // One window slot per segment in [snd_una, snd_nxt). Table 1's three
  // lists are flags on it: every slot is either to-be-ack (in flight) or
  // to-be-sent (declared dropped, awaiting retransmission), and memorize
  // marks a subset of the to-be-ack slots.
  enum : std::uint8_t {
    kToBeAck = 1,
    kToBeSent = 2,
    kMemorize = 4,
    kRetransmission = 8,  // the in-flight copy is a retransmission
  };
  struct Slot {
    // Deadline timestamp: refreshed by re-stamping/deferral (see DESIGN.md
    // §6.1); drop detection compares against stamp + mxrtt.
    sim::TimePoint stamp;
    // True transmission time, never refreshed: the basis of eq. (1)'s
    // sample-rtt, so the estimator can learn RTTs above the current mxrtt.
    // After a drop declaration it keeps the lost copy's time until the
    // retransmission goes out (the drop-record RTT sample reads it then).
    sim::TimePoint transmitted;
    double cwnd_at_send = 0;  // cwnd snapshot (halving basis, §3.1)
    // Timer-declared drops of this segment in the current loss episode;
    // nonzero is the drop record that exempts it from episode deferral.
    std::int32_t drops = 0;
    std::uint8_t flags = 0;
  };
  static_assert(sizeof(Slot) <= 32);
  // Drop-timer index: (stamp, seq) in stamp order. Every stamp is now()
  // when pushed, so appending keeps the order; an entry is stale once its
  // segment is acked, declared dropped or re-stamped, and stale entries
  // are skipped when they reach the front.
  struct Deadline {
    sim::TimePoint stamp;
    SeqNo seq = 0;
  };

  void flush_cwnd();                // Table 1: flush-cwnd()
  void handle_drop(SeqNo seq);      // Table 1: drop-detected event
  bool declaration_deferred(SeqNo seq) const;
  void update_ewrtt(sim::Duration sample);
  void rearm_drop_timer();
  void on_drop_timer();
  void enter_extreme_loss(SeqNo seq);
  void send_one(SeqNo seq);
  // Re-stamps a to-be-ack slot with now() and indexes the new deadline.
  void restamp(SeqNo seq);
  // Drops stale entries off the front of deadlines_; false when empty.
  bool live_deadline_front();
  // The smallest to-be-sent seq; requires to_be_sent_count_ > 0.
  SeqNo lowest_to_be_sent();

  TcpPrConfig pr_;
  Mode mode_ = Mode::kSlowStart;
  double cwnd_;
  double ssthr_;
  double ewrtt_s_ = 0;       // 0 = no estimate yet
  double backoff_mxrtt_s_ = 0;  // overrides beta*ewrtt while backing off
  bool in_backoff_ = false;
  int cburst_ = 0;
  std::size_t burst_snapshot_size_ = 0;  // |memorize| at the last snapshot
  SeqNo recover_point_ = -1;  // episode open while cum-ack below this
  sim::TimePoint episode_started_;
  sim::TimePoint send_blocked_until_;

  SeqNo next_new_ = 0;
  int dup_credits_ = 0;  // dupacks since the last cumulative-ACK advance
  // The window [stats_.segments_acked, next_new_), allocated on first send.
  util::SeqRing<Slot, 8> window_;
  std::size_t to_be_ack_count_ = 0;
  std::size_t to_be_sent_count_ = 0;
  std::size_t memorize_count_ = 0;
  // No to-be-sent slot lies below this (the lowest_to_be_sent scan start).
  SeqNo rtx_hint_ = 0;
  util::RingDeque<Deadline> deadlines_;

  std::uint32_t next_tx_serial_ = 1;
  bool validate_ = false;
  std::uint64_t early_drop_declarations_ = 0;
  // Coalesced timers (one armed event per flow, not per packet): the drop
  // timer tracks the earliest outstanding deadline — which normally only
  // moves later as the head of deadlines_ is acked — and the unblock
  // timer tracks send_blocked_until_, which backoff doubling only pushes
  // out. Both are exactly DeadlineTimer's lazy re-arm pattern, keeping the
  // pending-event population O(flows) instead of O(acks).
  sim::DeadlineTimer drop_timer_;
  sim::DeadlineTimer unblock_timer_;
};

}  // namespace tcppr::core
