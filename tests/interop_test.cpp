// Cross-feature interoperability tests: sender variants against
// non-default receiver configurations (no SACK, delayed ACKs), RED
// bottlenecks, and mixed-variant sharing.
#include <gtest/gtest.h>

#include <memory>

#include "core/tcp_pr.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sack.hpp"
#include "test_util.hpp"

namespace tcppr {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

// Builds a flow with a custom receiver configuration.
tcp::SenderBase* add_flow_with_receiver(PathFixture& f, TcpVariant variant,
                                        net::FlowId flow,
                                        tcp::ReceiverConfig rc,
                                        tcp::TcpConfig tc = {}) {
  f.receivers.push_back(
      std::make_unique<tcp::Receiver>(*f.network, f.dst, f.src, flow, rc));
  f.senders.push_back(harness::make_sender(variant, *f.network, f.src, f.dst,
                                           flow, tc, core::TcpPrConfig{}));
  return f.senders.back().get();
}

TEST(Interop, SackSenderFallsBackToDupacksWithoutSackOption) {
  // Receiver with SACK generation disabled: the sender must still detect
  // loss via duplicate-ACK counting.
  PathFixture f;
  tcp::ReceiverConfig rc;
  rc.generate_sack = false;
  rc.generate_dsack = false;
  tcp::TcpConfig tc;
  tc.max_cwnd = 30;
  auto* sender = add_flow_with_receiver(f, TcpVariant::kSack, 1, rc, tc);
  int dropped = 0;
  f.fwd->set_drop_filter([&](const net::Packet& pkt) {
    if (pkt.type == net::PacketType::kTcpData && pkt.tcp.seq == 50 &&
        dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  sender->start();
  f.run_for(10);
  EXPECT_EQ(sender->stats().fast_retransmits, 1u);
  EXPECT_EQ(sender->stats().timeouts, 0u);
  EXPECT_GT(sender->stats().segments_acked, 1000);
}

TEST(Interop, TcpPrWorksWithDelayedAckReceiver) {
  PathFixture f;
  tcp::ReceiverConfig rc;
  rc.delayed_ack = true;
  tcp::TcpConfig tc;
  tc.max_cwnd = 30;
  auto* sender = add_flow_with_receiver(f, TcpVariant::kTcpPr, 1, rc, tc);
  sender->set_transfer_segments(500);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(30);
  EXPECT_TRUE(done);
  EXPECT_EQ(sender->stats().retransmissions, 0u);
}

TEST(Interop, DelayedAcksSlowSlowStartButNotThroughput) {
  const auto acked = [](bool delack) {
    PathFixture f;
    tcp::ReceiverConfig rc;
    rc.delayed_ack = delack;
    tcp::TcpConfig tc;
    tc.max_cwnd = 60;
    auto* sender = add_flow_with_receiver(f, TcpVariant::kTcpPr, 1, rc, tc);
    sender->start();
    f.run_for(20);
    return sender->stats().segments_acked;
  };
  const auto with = acked(true);
  const auto without = acked(false);
  // Both saturate the 10 Mbps bottleneck eventually.
  EXPECT_GT(with, 0.85 * static_cast<double>(without));
}

TEST(Interop, TcpPrOverRedBottleneck) {
  // RED drops early and randomly rather than in tail bursts; TCP-PR's
  // timer detection must still converge to the available rate.
  sim::Scheduler sched;
  net::Network network(sched);
  const auto a = network.add_node();
  const auto r = network.add_node();
  const auto b = network.add_node();
  net::LinkConfig access;
  access.bandwidth_bps = 1e9;
  access.delay = sim::Duration::millis(1);
  network.add_duplex_link(a, r, access);
  net::RedQueue::Params red;
  red.limit_packets = 100;
  red.min_thresh = 10;
  red.max_thresh = 40;
  network.add_link_with_queue(
      r, b, 10e6, sim::Duration::millis(10),
      std::make_unique<net::RedQueue>(red, sim::Rng(3)));
  net::LinkConfig back;
  back.bandwidth_bps = 10e6;
  back.delay = sim::Duration::millis(10);
  network.add_link(b, r, back);
  network.compute_static_routes();

  tcp::Receiver receiver(network, b, a, 1);
  core::TcpPrSender sender(network, a, b, 1);
  sender.start();
  sched.run_until(sim::TimePoint::from_seconds(30));
  const double goodput =
      static_cast<double>(receiver.stats().goodput_bytes) * 8 / 30.0;
  EXPECT_GT(goodput, 5e6);
  EXPECT_GT(sender.stats().cwnd_halvings, 3u);  // RED kept trimming it
  // RED sometimes drops a retransmission chain, which escalates to the
  // coarse backoff exactly as a NewReno RTO would; it must stay rare.
  EXPECT_LT(sender.stats().extreme_loss_events, 10u);
}

TEST(Interop, MixedVariantsShareOneBottleneck) {
  // One flow of each major variant on the same queue: everyone gets a
  // non-trivial share, nobody starves.
  PathFixture f;
  std::vector<tcp::SenderBase*> senders;
  net::FlowId flow = 1;
  for (const TcpVariant v :
       {TcpVariant::kTcpPr, TcpVariant::kSack, TcpVariant::kNewReno,
        TcpVariant::kTdFr, TcpVariant::kIncByN}) {
    senders.push_back(f.add_flow(v, flow++));
  }
  for (auto* s : senders) s->start();
  f.run_for(60);
  double total = 0;
  for (auto* s : senders) {
    total += static_cast<double>(s->stats().segments_acked);
  }
  for (auto* s : senders) {
    const double share =
        static_cast<double>(s->stats().segments_acked) / total;
    EXPECT_GT(share, 0.05) << s->algorithm();
    EXPECT_LT(share, 0.55) << s->algorithm();
  }
}

TEST(Interop, TwoPrFlowsConvergeToEqualShares) {
  PathFixture f;
  auto* a = f.add_flow(TcpVariant::kTcpPr, 1);
  auto* b = f.add_flow(TcpVariant::kTcpPr, 2);
  a->start();
  // Late joiner must still converge (AIMD).
  f.sched.schedule_at(sim::TimePoint::from_seconds(5),
                      [&] { b->start(); });
  f.run_for(120);
  const auto a1 = a->stats().bytes_newly_acked;
  const auto b1 = b->stats().bytes_newly_acked;
  f.run_for(60);
  const double a_rate = static_cast<double>(a->stats().bytes_newly_acked - a1);
  const double b_rate = static_cast<double>(b->stats().bytes_newly_acked - b1);
  EXPECT_NEAR(a_rate / (a_rate + b_rate), 0.5, 0.15);
}

TEST(Interop, ZeroLengthTransferCompletesImmediately) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kTcpPr, 1);
  sender->set_transfer_segments(0);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(1);
  // Nothing to send and nothing outstanding; no packets were emitted.
  EXPECT_EQ(sender->stats().data_packets_sent, 0u);
  EXPECT_TRUE(done);
  EXPECT_TRUE(sender->complete());
}

TEST(Interop, SingleSegmentTransfer) {
  for (const TcpVariant v : harness::all_variants()) {
    PathFixture f;
    auto* sender = f.add_flow(v, 1);
    sender->set_transfer_segments(1);
    bool done = false;
    sender->set_completion_callback([&] { done = true; });
    sender->start();
    f.run_for(5);
    EXPECT_TRUE(done) << harness::to_string(v);
  }
}

}  // namespace
}  // namespace tcppr
