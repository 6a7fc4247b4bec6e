// TCP-SACK sender: scoreboard + pipe loss recovery in the style of ns-2's
// sack1 / RFC 3517. This is the paper's "standard TCP" comparator and the
// base class for the reordering mitigations of Blanton & Allman [3]
// (tcp/mitigation.hpp), time-delayed fast recovery (tcp/tdfr.hpp), and
// Eifel (tcp/eifel.hpp).
//
// Loss is inferred two ways, both gated on dupthresh so the [3] mitigations
// work by raising it: (a) dupacks >= dupthresh, (b) a segment with at least
// dupthresh SACKed segments above it (FACK-style gap rule).
//
// The scoreboard is the SACKed / lost / retransmission-in-flight mark bits
// on the sender's per-segment transmission records (tcp/tx_window.hpp), so
// sending and acknowledging touch no heap once the window has its size.
#pragma once

#include <cstdint>
#include <map>

#include "tcp/rto.hpp"
#include "tcp/sender_base.hpp"
#include "tcp/tx_window.hpp"

namespace tcppr::tcp {

class SackSender : public SenderBase {
 public:
  SackSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config = {});

  double cwnd() const override { return cwnd_; }
  const char* algorithm() const override { return "sack"; }
  SenderInvariantView invariant_view() const override;

  double ssthresh() const { return ssthresh_; }
  bool in_fast_recovery() const { return in_recovery_; }
  SeqNo snd_una() const { return snd_una_; }
  SeqNo snd_nxt() const { return snd_nxt_; }
  int effective_dupthresh() const;
  double raw_dupthresh() const { return dupthresh_; }
  double pipe() const;
  const RtoEstimator& rto_estimator() const { return rto_; }

  void rebind_scheduler(sim::Scheduler& shard) override {
    SenderBase::rebind_scheduler(shard);
    rto_timer_.rebind(shard);
    rto_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_node()));
  }

 protected:
  void on_start() override;
  void on_ack_packet(const net::Packet& ack) override;

  // ---- hooks for subclasses -------------------------------------------
  // Recovery entry condition (TD-FR replaces dupack counting by a timer).
  virtual bool loss_detected() const;
  // Whether the SACK gap rule may mark losses before recovery is entered.
  virtual bool mark_losses_outside_recovery() const { return true; }
  // Extra per-dupack processing (TD-FR arms its timer here).
  virtual void on_dupack_hook(const net::Packet& ack) { (void)ack; }
  // Extra processing when the cumulative ACK advances.
  virtual void on_new_ack_hook(const net::Packet& ack) { (void)ack; }
  // Called when a retransmission is discovered to have been spurious.
  // reorder_extent = duplicate ACKs observed in the episode (the measure
  // the [3] dupthresh adjustments feed on).
  virtual void on_spurious_retransmit(SeqNo seq, int reorder_extent);

  // ---- shared machinery ------------------------------------------------
  void update_scoreboard(const net::Packet& ack);
  void mark_lost_by_sack();
  void enter_recovery();
  void undo_last_reduction(bool full_restore);
  void send_more();
  void retransmit(SeqNo seq);
  void on_timeout();
  void restart_rto_timer();
  void advance_una(SeqNo ack);

  bool process_dsack_ = false;  // mitigations switch this on

  double cwnd_ = 1;
  double ssthresh_;
  SeqNo snd_una_ = 0;
  SeqNo snd_nxt_ = 0;
  int dupacks_ = 0;
  double dupthresh_;       // adaptive in mitigation subclasses
  int episode_dupacks_ = 0;       // dupacks seen in the current loss episode
  int last_episode_dupacks_ = 0;  // final count of the previous episode
  bool in_recovery_ = false;
  SeqNo recover_ = 0;
  SeqNo highest_sacked_ = -1;

  bool peer_sends_sack_ = false;    // any SACK block seen from this peer
  // [snd_una_, snd_max): transmissions plus the scoreboard marks, which
  // all lie in [snd_una_, snd_nxt_) (kRtxInFlight only on kLost records).
  TxWindow tx_;

  // Saved congestion state at the most recent window reduction (undo).
  double saved_cwnd_ = 0;
  double saved_ssthresh_ = 0;

  // Retransmitted segments below snd_una_, kept for DSACK/Eifel spurious
  // detection; pruned as the window advances.
  struct RtxRecord {
    sim::TimePoint rtx_time;
    int episode_dupacks;
  };
  std::map<SeqNo, RtxRecord> recent_rtx_;

  std::uint32_t next_tx_serial_ = 1;
  RtoEstimator rto_;
  sim::DeadlineTimer rto_timer_;
};

}  // namespace tcppr::tcp
