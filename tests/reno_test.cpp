// Behavioural tests for the Reno and NewReno senders on a controlled
// source-router-destination path with deterministic drop injection.
#include <gtest/gtest.h>

#include <map>

#include "tcp/reno.hpp"
#include "test_util.hpp"

namespace tcppr::tcp {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

// Drops the first transmission of each sequence number in `seqs`.
void drop_first_tx_of(net::Link* link, std::initializer_list<net::SeqNo> seqs) {
  auto counts = std::make_shared<std::map<net::SeqNo, int>>();
  std::set<net::SeqNo> targets(seqs);
  link->set_drop_filter([counts, targets](const net::Packet& pkt) {
    if (pkt.type != net::PacketType::kTcpData) return false;
    if (!targets.contains(pkt.tcp.seq)) return false;
    return ++(*counts)[pkt.tcp.seq] == 1;
  });
}

TEST(Reno, CompletesFixedTransferWithoutLoss) {
  // The NewReno transfer keeps at most 6 segments in flight, so the
  // transmission ring stays at its 8-slot minimum and 2000 segments reuse
  // every slot 250 times; a slot the cumulative ACK passed but left set
  // would make its next send look like a resend.
  struct Transfer {
    TcpVariant variant;
    double max_cwnd;
    SeqNo segments;
  };
  for (const Transfer& t :
       {Transfer{TcpVariant::kReno, TcpConfig{}.max_cwnd, 200},
        Transfer{TcpVariant::kNewReno, 6, 2000}}) {
    SCOPED_TRACE(harness::to_string(t.variant));
    PathFixture f;
    tcp::TcpConfig config;
    config.max_cwnd = t.max_cwnd;
    auto* sender = f.add_flow(t.variant, 1, config);
    sender->set_transfer_segments(t.segments);
    bool done = false;
    sender->set_completion_callback([&] { done = true; });
    sender->start();
    f.run_for(30);
    EXPECT_TRUE(done);
    EXPECT_EQ(sender->stats().segments_acked, t.segments);
    EXPECT_EQ(sender->stats().data_packets_sent,
              static_cast<std::uint64_t>(t.segments));
    EXPECT_EQ(sender->stats().retransmissions, 0u);
    EXPECT_EQ(f.receiver()->stats().duplicates, 0u);
  }
}

TEST(Reno, SlowStartDoublesWindowPerRtt) {
  PathFixture f(100e6, sim::Duration::millis(50));
  auto* sender = f.add_flow(TcpVariant::kReno, 1);
  sender->start();
  // ~5 RTTs of ~102ms: cwnd should have grown far beyond initial.
  f.run_for(0.55);
  EXPECT_GE(sender->cwnd(), 16.0);
}

TEST(Reno, FastRetransmitOnTripleDupack) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;  // below the queue limit: no self-induced losses
  auto* sender = f.add_flow(TcpVariant::kReno, 1, config);
  drop_first_tx_of(f.fwd, {30});
  sender->start();
  f.run_for(10);
  EXPECT_EQ(sender->stats().fast_retransmits, 1u);
  EXPECT_EQ(sender->stats().timeouts, 0u);
  EXPECT_EQ(sender->stats().retransmissions, 1u);
  // The flow keeps making progress after recovery.
  EXPECT_GT(sender->stats().segments_acked, 100);
}

TEST(Reno, WindowHalvedAfterLoss) {
  PathFixture f;
  auto* reno = dynamic_cast<RenoSender*>(f.add_flow(TcpVariant::kReno, 1));
  ASSERT_NE(reno, nullptr);
  double cwnd_before_loss = 0;
  reno->set_cwnd_listener([&](sim::TimePoint, double w) {
    if (reno->stats().fast_retransmits == 0) cwnd_before_loss = w;
  });
  drop_first_tx_of(f.fwd, {50});
  reno->start();
  f.run_for(5);
  ASSERT_EQ(reno->stats().fast_retransmits, 1u);
  EXPECT_LT(reno->ssthresh(), cwnd_before_loss);
}

TEST(Reno, TimeoutWhenAllAcksLost) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kReno, 1);
  // Black-hole the data path entirely after 1 s.
  f.sched.schedule_at(sim::TimePoint::from_seconds(1.0), [&] {
    f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  });
  f.sched.schedule_at(sim::TimePoint::from_seconds(6.0), [&] {
    f.fwd->set_drop_filter(nullptr);
  });
  sender->start();
  f.run_for(20);
  EXPECT_GE(sender->stats().timeouts, 1u);
  // Recovers and finishes more data after the outage.
  EXPECT_GT(sender->stats().segments_acked, 500);
}

TEST(Reno, ExponentialBackoffUnderPersistentOutage) {
  PathFixture f;
  auto* reno = dynamic_cast<RenoSender*>(f.add_flow(TcpVariant::kReno, 1));
  f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  reno->start();
  f.run_for(30);
  EXPECT_GE(reno->stats().timeouts, 3u);
  EXPECT_GE(reno->rto_estimator().backoff_multiplier(), 8);
}

TEST(Reno, RecoversFromAckPathLoss) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kReno, 1);
  f.rev->set_loss_model(0.2, sim::Rng(5));  // drop 20% of ACKs
  sender->start();
  f.run_for(20);
  // Cumulative ACKs make ACK loss mostly harmless.
  EXPECT_GT(sender->stats().segments_acked, 5000);
}

TEST(NewReno, HandlesMultipleDropsInOneWindowWithoutTimeout) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kNewReno, 1);
  drop_first_tx_of(f.fwd, {40, 42, 44});
  sender->start();
  f.run_for(15);
  EXPECT_EQ(sender->stats().timeouts, 0u);
  EXPECT_GE(sender->stats().retransmissions, 3u);
  EXPECT_GT(sender->stats().segments_acked, 1000);
}

TEST(NewReno, SingleHalvingForBurstInOneWindow) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* sender = f.add_flow(TcpVariant::kNewReno, 1, config);
  drop_first_tx_of(f.fwd, {60, 61, 62});
  sender->start();
  f.run_for(10);
  EXPECT_EQ(sender->stats().cwnd_halvings, 1u);
}

TEST(NewReno, CompletesUnderRandomLoss) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kNewReno, 1);
  f.fwd->set_loss_model(0.02, sim::Rng(7));
  sender->set_transfer_segments(2000);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(120);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.receiver()->rcv_next(), 2000);
}

}  // namespace
}  // namespace tcppr::tcp
