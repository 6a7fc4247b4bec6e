// Unit tests for the TCP receiver: cumulative ACKs, duplicate ACKs, SACK
// block construction/merging, DSACK on duplicates, delayed ACKs, and
// reordering statistics; plus a differential test of the out-of-order
// buffer against a straightforward set-and-list reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "app/sources.hpp"
#include "net/network.hpp"
#include "tcp/receiver.hpp"

namespace tcppr::tcp {
namespace {

class ReceiverFixture : public ::testing::Test {
 protected:
  explicit ReceiverFixture() { build({}); }

  void build(ReceiverConfig config) {
    receiver.reset();
    sink.reset();
    network = std::make_unique<net::Network>(sched);
    a = network->add_node();
    b = network->add_node();
    net::LinkConfig cfg;
    network->add_duplex_link(a, b, cfg);
    network->compute_static_routes();
    sink = std::make_unique<app::PacketSink>(*network, a, kFlow);
    receiver =
        std::make_unique<Receiver>(*network, b, a, kFlow, config);
    receiver->set_ack_tap([this](const net::Packet& ack) {
      acks.push_back(ack);
    });
  }

  void data(net::SeqNo seq, std::uint32_t tx_serial = 0) {
    net::Packet pkt;
    pkt.src = a;
    pkt.dst = b;
    pkt.size_bytes = 1040;
    pkt.type = net::PacketType::kTcpData;
    pkt.tcp.flow = kFlow;
    pkt.tcp.seq = seq;
    pkt.tcp.tx_serial = tx_serial;
    pkt.tcp.ts_value = sched.now().as_seconds();
    receiver->deliver(std::move(pkt));
  }

  static constexpr net::FlowId kFlow = 1;
  sim::Scheduler sched;
  std::unique_ptr<net::Network> network;
  net::NodeId a{}, b{};
  std::unique_ptr<app::PacketSink> sink;
  std::unique_ptr<Receiver> receiver;
  std::vector<net::Packet> acks;
};

TEST_F(ReceiverFixture, InOrderCumulativeAcks) {
  for (int i = 0; i < 5; ++i) data(i);
  ASSERT_EQ(acks.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(acks[i].tcp.ack, i + 1);
  EXPECT_EQ(receiver->rcv_next(), 5);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
}

TEST_F(ReceiverFixture, HoleProducesDuplicateAcks) {
  data(0);
  data(2);
  data(3);
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[1].tcp.ack, 1);  // duplicate cumulative ACK
  EXPECT_EQ(acks[2].tcp.ack, 1);
  EXPECT_EQ(receiver->ooo_buffered(), 2u);
}

TEST_F(ReceiverFixture, FillingHoleAdvancesPastBuffered) {
  data(0);
  data(2);
  data(3);
  data(1);  // fills the hole
  EXPECT_EQ(acks.back().tcp.ack, 4);
  EXPECT_EQ(receiver->ooo_buffered(), 0u);
}

TEST_F(ReceiverFixture, SackBlocksDescribeAboveWindow) {
  data(0);
  data(2);
  data(3);
  data(5);
  const auto& sack = acks.back().tcp.sack;
  ASSERT_EQ(sack.size(), 2u);
  // Most recent block first (RFC 2018): [5,6) then [2,4).
  EXPECT_EQ(sack[0].begin, 5);
  EXPECT_EQ(sack[0].end, 6);
  EXPECT_EQ(sack[1].begin, 2);
  EXPECT_EQ(sack[1].end, 4);
}

TEST_F(ReceiverFixture, SackBlocksMerge) {
  data(0);
  data(2);
  data(4);
  data(3);  // joins [2,3) and [4,5) into [2,5)
  const auto& sack = acks.back().tcp.sack;
  ASSERT_EQ(sack.size(), 1u);
  EXPECT_EQ(sack[0].begin, 2);
  EXPECT_EQ(sack[0].end, 5);
}

TEST_F(ReceiverFixture, AtMostThreeSackBlocks) {
  data(0);
  data(2);
  data(4);
  data(6);
  data(8);
  data(10);
  EXPECT_LE(acks.back().tcp.sack.size(), 3u);
}

TEST_F(ReceiverFixture, SackRetiredByCumulativeAdvance) {
  data(0);
  data(2);
  data(1);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
  EXPECT_EQ(acks.back().tcp.ack, 3);
}

TEST_F(ReceiverFixture, DuplicateSegmentTriggersDsack) {
  data(0);
  data(1);
  data(1);  // duplicate
  ASSERT_TRUE(acks.back().tcp.dsack.has_value());
  EXPECT_EQ(acks.back().tcp.dsack->begin, 1);
  EXPECT_EQ(acks.back().tcp.dsack->end, 2);
  EXPECT_EQ(receiver->stats().duplicates, 1u);
}

TEST_F(ReceiverFixture, DuplicateAboveWindowAlsoDsacked) {
  data(0);
  data(5);
  data(5);
  ASSERT_TRUE(acks.back().tcp.dsack.has_value());
  EXPECT_EQ(acks.back().tcp.dsack->begin, 5);
}

TEST_F(ReceiverFixture, NoDsackWhenDisabled) {
  ReceiverConfig config;
  config.generate_dsack = false;
  build(config);
  data(0);
  data(0);
  EXPECT_FALSE(acks.back().tcp.dsack.has_value());
}

TEST_F(ReceiverFixture, NoSackWhenDisabled) {
  ReceiverConfig config;
  config.generate_sack = false;
  build(config);
  data(0);
  data(2);
  EXPECT_TRUE(acks.back().tcp.sack.empty());
}

TEST_F(ReceiverFixture, TimestampEcho) {
  sched.run_until(sim::TimePoint::from_seconds(1.25));
  data(0);
  EXPECT_DOUBLE_EQ(acks.back().tcp.ts_echo, 1.25);
}

TEST_F(ReceiverFixture, ReorderStatsTrackExtent) {
  data(0);
  data(4);  // extent 3 (expected 1, got 4)
  data(2);
  EXPECT_EQ(receiver->stats().out_of_order, 2u);
  EXPECT_EQ(receiver->stats().max_reorder_extent, 3);
}

TEST_F(ReceiverFixture, GoodputCountsInOrderBytesOnly) {
  data(0);
  data(5);
  EXPECT_EQ(receiver->stats().goodput_bytes, 1000u);
  data(1);
  EXPECT_EQ(receiver->stats().goodput_bytes, 2000u);
}

TEST_F(ReceiverFixture, DelayedAckEverySecondSegment) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  data(0);
  EXPECT_EQ(acks.size(), 0u);  // withheld
  data(1);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].tcp.ack, 2);
}

TEST_F(ReceiverFixture, DelayedAckTimesOut) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  data(0);
  EXPECT_EQ(acks.size(), 0u);
  sched.run_until(sched.now() + sim::Duration::millis(150));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].tcp.ack, 1);
}

TEST_F(ReceiverFixture, DelayedAckEchoesTheSegmentItHeld) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  sched.run_until(sim::TimePoint::from_seconds(0.5));
  data(0, /*tx_serial=*/7);
  EXPECT_EQ(acks.size(), 0u);
  // The timeout ACK echoes the withheld segment's serial and timestamp.
  sched.run_until(sched.now() + sim::Duration::millis(150));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].tcp.ack, 1);
  EXPECT_EQ(acks[0].tcp.echo_serial, 7u);
  EXPECT_DOUBLE_EQ(acks[0].tcp.ts_echo, 0.5);
  // The every-second-segment ACK echoes the segment that completed it.
  data(1, /*tx_serial=*/8);
  EXPECT_EQ(acks.size(), 1u);
  data(2, /*tx_serial=*/9);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[1].tcp.ack, 3);
  EXPECT_EQ(acks[1].tcp.echo_serial, 9u);
}

TEST_F(ReceiverFixture, DelayedAckBypassedByOutOfOrder) {
  ReceiverConfig config;
  config.delayed_ack = true;
  build(config);
  data(0);
  data(2);  // out of order: must ACK immediately
  ASSERT_GE(acks.size(), 1u);
  EXPECT_EQ(acks.back().tcp.ack, 1);
}

TEST_F(ReceiverFixture, AcksAreRoutedToSender) {
  data(0);
  sched.run();
  EXPECT_EQ(sink->packets(), 1u);  // the ACK arrived at node a
}

TEST_F(ReceiverFixture, IgnoresStrayAcks) {
  net::Packet stray;
  stray.type = net::PacketType::kTcpAck;
  stray.tcp.flow = kFlow;
  receiver->deliver(std::move(stray));
  EXPECT_EQ(receiver->stats().data_packets_received, 0u);
}

// Reference for the receiver's ACK content: the buffered segments in a
// std::set, the SACK blocks in a recency-ordered std::list that every
// out-of-order arrival walks to merge overlapping or adjacent blocks, and a
// cumulative advance that walks it again to retire covered blocks.
class ReferenceReceiver {
 public:
  struct Ack {
    net::SeqNo ack = 0;
    std::vector<net::SackBlock> sack;
    std::optional<net::SackBlock> dsack;
  };

  Ack on_data(net::SeqNo seq) {
    bool duplicate = false;
    if (seq < rcv_next_ || above_.contains(seq)) {
      duplicate = true;
    } else if (seq == rcv_next_) {
      ++rcv_next_;
      while (!above_.empty() && *above_.begin() == rcv_next_) {
        above_.erase(above_.begin());
        ++rcv_next_;
      }
      for (auto it = blocks_.begin(); it != blocks_.end();) {
        if (it->end <= rcv_next_) {
          it = blocks_.erase(it);
        } else {
          it->begin = std::max(it->begin, rcv_next_);
          ++it;
        }
      }
    } else {
      above_.insert(seq);
      net::SeqNo begin = seq;
      net::SeqNo end = seq + 1;
      for (auto it = blocks_.begin(); it != blocks_.end();) {
        if (begin <= it->end && it->begin <= end) {
          begin = std::min(begin, it->begin);
          end = std::max(end, it->end);
          it = blocks_.erase(it);
        } else {
          ++it;
        }
      }
      blocks_.push_front(net::SackBlock{begin, end});
    }
    Ack a;
    a.ack = rcv_next_;
    if (duplicate) a.dsack = net::SackBlock{seq, seq + 1};
    for (const auto& b : blocks_) {
      if (a.sack.size() == 3) break;
      a.sack.push_back(b);
    }
    return a;
  }

  net::SeqNo rcv_next() const { return rcv_next_; }
  std::size_t buffered() const { return above_.size(); }
  std::vector<net::SackBlock> blocks() const {
    return {blocks_.begin(), blocks_.end()};
  }

 private:
  net::SeqNo rcv_next_ = 0;
  std::set<net::SeqNo> above_;
  std::list<net::SackBlock> blocks_;
};

// Random arrival orders in phases of narrow and wide reordering: holes far
// wider than the buffer's initial 16 slots (so it grows, wraps and later
// shrinks), duplicates below and above the cumulative ACK point, and many
// more than three blocks, so blocks leave the reported top three and are
// extended later. Every ACK and the block list must match the reference.
TEST_F(ReceiverFixture, MatchesSetAndListReferenceOnRandomArrivals) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    build({});
    acks.clear();
    ReferenceReceiver ref;
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](std::uint64_t n) {
      return static_cast<net::SeqNo>(rng() % n);
    };
    std::size_t max_blocks = 0;
    for (int step = 0; step < 6000; ++step) {
      const net::SeqNo next = ref.rcv_next();
      const net::SeqNo width = (step / 500) % 2 == 0 ? 12 : 400;
      net::SeqNo seq;
      const auto r = draw(100);
      if (r < 8) {
        seq = next;  // fill the head hole
      } else if (r < 14) {
        seq = std::max<net::SeqNo>(0, next - 1 - draw(20));  // old duplicate
      } else {
        seq = next + 1 + draw(static_cast<std::uint64_t>(width));
      }
      data(seq);
      const auto want = ref.on_data(seq);
      ASSERT_FALSE(acks.empty());
      const net::Packet& got = acks.back();
      ASSERT_EQ(got.tcp.ack, want.ack) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.tcp.dsack, want.dsack)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(std::vector<net::SackBlock>(got.tcp.sack.begin(),
                                            got.tcp.sack.end()),
                want.sack)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(receiver->sack_blocks(), ref.blocks())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(receiver->ooo_buffered(), ref.buffered());
      max_blocks = std::max(max_blocks, ref.blocks().size());

    }
    EXPECT_GT(max_blocks, 20u) << "seed " << seed;
    EXPECT_GT(ref.rcv_next(), 1000) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tcppr::tcp
