// TCP-DOOR (Wang & Zhang, MOBIHOC 2002) — reference [20] of the paper.
//
// Detects out-of-order events through per-transmission sequence numbers
// (our tx_serial option, echoed by the receiver) and responds by
//   (1) temporarily disabling the congestion response for an interval T1
//       after an out-of-order observation, and
//   (2) "instant recovery": if a congestion response happened within T2
//       before the out-of-order event, the pre-response state is restored.
// Built on NewReno, as in the original (a MANET-oriented Reno derivative).
//
// Related-work extension: TCP-DOOR is discussed in Section 2 but not part
// of Figure 6; it completes the comparison suite.
#pragma once

#include "tcp/reno.hpp"

namespace tcppr::tcp {

class DoorSender final : public NewRenoSender {
 public:
  struct DoorParams {
    sim::Duration t1 = sim::Duration::millis(100);  // response-off window
    sim::Duration t2 = sim::Duration::millis(100);  // instant-recovery window
  };

  DoorSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config, DoorParams params);
  DoorSender(net::Network& network, net::NodeId local, net::NodeId remote,
             FlowId flow, TcpConfig config = {})
      : DoorSender(network, local, remote, flow, config, DoorParams{}) {}

  const char* algorithm() const override { return "tcp-door"; }
  std::uint64_t ooo_events() const { return ooo_events_; }

 protected:
  void on_ack_packet(const net::Packet& ack) override;
  void handle_dupack(const net::Packet& ack) override;
  void enter_fast_recovery() override;

 private:
  bool response_disabled() const;

  DoorParams params_;
  std::uint32_t highest_echo_serial_ = 0;
  sim::TimePoint last_ooo_at_ = sim::TimePoint::origin() -
                                sim::Duration::seconds(1e6);
  sim::TimePoint last_reduction_at_ = sim::TimePoint::origin() -
                                      sim::Duration::seconds(1e6);
  double pre_reduction_cwnd_ = 0;
  double pre_reduction_ssthresh_ = 0;
  std::uint64_t ooo_events_ = 0;
};

}  // namespace tcppr::tcp
