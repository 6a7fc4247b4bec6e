// TCP Reno sender: slow start, congestion avoidance, fast retransmit and
// fast recovery with window inflation (RFC 5681), go-back-N on timeout as
// in ns-2 (the substrate under which the paper's results were produced).
// NewRenoSender refines recovery behaviour on partial ACKs. Per-segment
// transmission records live in a seq-indexed ring (tcp/tx_window.hpp).
#pragma once

#include <cstdint>

#include "tcp/rto.hpp"
#include "tcp/sender_base.hpp"
#include "tcp/tx_window.hpp"

namespace tcppr::tcp {

class RenoSender : public SenderBase {
 public:
  RenoSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config = {});

  double cwnd() const override { return cwnd_; }
  const char* algorithm() const override { return "reno"; }
  SenderInvariantView invariant_view() const override;

  double ssthresh() const { return ssthresh_; }
  bool in_fast_recovery() const { return in_recovery_; }
  SeqNo snd_una() const { return snd_una_; }
  SeqNo snd_nxt() const { return snd_nxt_; }
  sim::Duration current_rto() const { return rto_.rto(); }
  const RtoEstimator& rto_estimator() const { return rto_; }

  void rebind_scheduler(sim::Scheduler& shard) override {
    SenderBase::rebind_scheduler(shard);
    rto_timer_.rebind(shard);
    rto_timer_.set_stamp_entity(static_cast<std::uint32_t>(local_node()));
  }

 protected:
  void on_start() override;
  void on_ack_packet(const net::Packet& ack) override;

  // Hook points for NewReno and TD-FR. handle_new_ack_in_recovery runs
  // with snd_una_ already moved up to `ack`.
  virtual void handle_new_ack_in_recovery(SeqNo ack);
  virtual void enter_fast_recovery();
  virtual void on_new_ack_hook() {}

  void handle_new_ack(SeqNo ack);
  virtual void handle_dupack(const net::Packet& ack);
  void exit_recovery();
  void open_window_on_ack();   // slow start / congestion avoidance growth
  void retransmit(SeqNo seq);
  void send_new_data();        // fill the usable window
  void on_timeout();
  void restart_rto_timer();
  void sample_rtt(SeqNo newly_acked_up_to);
  double usable_window() const;
  SeqNo flight_size() const { return snd_nxt_ - snd_una_; }

  double cwnd_ = 1;
  double ssthresh_;
  SeqNo snd_una_ = 0;
  SeqNo snd_nxt_ = 0;
  int dupacks_ = 0;
  int partial_acks_ = 0;  // partial ACKs in the current recovery episode
  bool in_recovery_ = false;
  SeqNo recover_ = 0;        // highest seq sent when recovery began
  double inflation_ = 0;     // dupack window inflation during recovery
  std::uint32_t next_tx_serial_ = 1;

  TxWindow tx_;  // [snd_una_, snd_max)

  RtoEstimator rto_;
  sim::DeadlineTimer rto_timer_;
};

class NewRenoSender : public RenoSender {
 public:
  using RenoSender::RenoSender;
  const char* algorithm() const override { return "newreno"; }

 protected:
  // Partial ACKs retransmit the next hole and stay in recovery (RFC 6582).
  void handle_new_ack_in_recovery(SeqNo ack) override;
};

}  // namespace tcppr::tcp
