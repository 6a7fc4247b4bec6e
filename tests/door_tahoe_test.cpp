// Tests for the Tahoe baseline and the TCP-DOOR related-work variant.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "harness/scenarios.hpp"
#include "tcp/door.hpp"
#include "tcp/tahoe.hpp"
#include "test_util.hpp"

namespace tcppr::tcp {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

void drop_first_tx_of(net::Link* link, std::set<net::SeqNo> targets) {
  auto counts = std::make_shared<std::map<net::SeqNo, int>>();
  link->set_drop_filter([counts, targets](const net::Packet& pkt) {
    if (pkt.type != net::PacketType::kTcpData) return false;
    if (!targets.contains(pkt.tcp.seq)) return false;
    return ++(*counts)[pkt.tcp.seq] == 1;
  });
}

TEST(Tahoe, CompletesCleanTransfer) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* sender = f.add_flow(TcpVariant::kTahoe, 1, config);
  sender->set_transfer_segments(300);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(20);
  EXPECT_TRUE(done);
  EXPECT_EQ(sender->stats().retransmissions, 0u);
}

TEST(Tahoe, LossSendsWindowBackToOne) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* tahoe =
      dynamic_cast<TahoeSender*>(f.add_flow(TcpVariant::kTahoe, 1, config));
  ASSERT_NE(tahoe, nullptr);
  double cwnd_after_fr = -1;
  tahoe->set_cwnd_listener([&](sim::TimePoint, double w) {
    if (tahoe->stats().fast_retransmits == 1 && cwnd_after_fr < 0) {
      cwnd_after_fr = w;
    }
  });
  drop_first_tx_of(f.fwd, {50});
  tahoe->start();
  f.run_for(5);
  ASSERT_EQ(tahoe->stats().fast_retransmits, 1u);
  EXPECT_DOUBLE_EQ(cwnd_after_fr, 1.0);  // Tahoe: no fast recovery
  EXPECT_FALSE(tahoe->in_fast_recovery());
}

TEST(Tahoe, SlowerThanRenoAfterLoss) {
  const auto acked = [](TcpVariant v) {
    PathFixture f;
    tcp::TcpConfig config;
    config.max_cwnd = 30;
    auto* sender = f.add_flow(v, 1, config);
    drop_first_tx_of(f.fwd, {50, 300, 600});
    sender->start();
    f.run_for(10);
    return sender->stats().segments_acked;
  };
  EXPECT_LT(acked(TcpVariant::kTahoe), acked(TcpVariant::kReno));
}

TEST(Door, CleanPathBehavesLikeNewReno) {
  const auto run = [](TcpVariant v) {
    PathFixture f;
    tcp::TcpConfig config;
    config.max_cwnd = 30;
    auto* sender = f.add_flow(v, 1, config);
    sender->set_transfer_segments(400);
    sender->start();
    f.run_for(20);
    return sender->stats().segments_acked;
  };
  EXPECT_EQ(run(TcpVariant::kDoor), run(TcpVariant::kNewReno));
}

TEST(Door, DetectsOutOfOrderEvents) {
  harness::MultipathConfig config;
  config.variant = TcpVariant::kDoor;
  config.epsilon = 0;
  config.tcp.max_cwnd = 50;
  auto scenario = harness::make_multipath(config);
  scenario->sched.run_until(sim::TimePoint::from_seconds(10));
  auto* door = dynamic_cast<DoorSender*>(scenario->senders[0].get());
  ASSERT_NE(door, nullptr);
  EXPECT_GT(door->ooo_events(), 100u);
}

TEST(Door, BeatsNewRenoUnderReordering) {
  const auto goodput = [](TcpVariant v) {
    harness::MultipathConfig config;
    config.variant = v;
    config.epsilon = 0;
    config.tcp.max_cwnd = 100;
    auto scenario = harness::make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(15));
    return scenario->receivers[0]->stats().goodput_bytes;
  };
  EXPECT_GT(goodput(TcpVariant::kDoor), goodput(TcpVariant::kNewReno));
}

TEST(Door, StillLosesToTcpPrUnderPersistentReordering) {
  // DOOR recovers from occasional reordering but, per the paper's thesis,
  // ordering-based detection keeps misfiring when reordering never stops.
  const auto goodput = [](TcpVariant v) {
    harness::MultipathConfig config;
    config.variant = v;
    config.epsilon = 0;
    config.tcp.max_cwnd = 100;
    auto scenario = harness::make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(15));
    return scenario->receivers[0]->stats().goodput_bytes;
  };
  EXPECT_GT(goodput(TcpVariant::kTcpPr), goodput(TcpVariant::kDoor));
}

TEST(Door, InstantRecoveryRestoresWindow) {
  // Force a spurious-looking reduction via reordering and check the
  // recorded OOO response restored cwnd at least once: observable as DOOR
  // reaching clearly higher cwnd than plain NewReno in the same scenario.
  const auto peak_cwnd = [](TcpVariant v) {
    harness::MultipathConfig config;
    config.variant = v;
    config.epsilon = 1.0;
    config.tcp.max_cwnd = 200;
    auto scenario = harness::make_multipath(config);
    double peak = 0;
    scenario->senders[0]->set_cwnd_listener(
        [&](sim::TimePoint, double w) { peak = std::max(peak, w); });
    scenario->sched.run_until(sim::TimePoint::from_seconds(12));
    return peak;
  };
  EXPECT_GE(peak_cwnd(TcpVariant::kDoor), peak_cwnd(TcpVariant::kNewReno));
}

}  // namespace
}  // namespace tcppr::tcp
