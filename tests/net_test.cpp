// Unit tests for the network substrate: queues, pool slots and the
// handles queues hold, links (serialization and propagation timing), node
// forwarding, and Network route computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "app/sources.hpp"
#include "net/network.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace tcppr::net {
namespace {

Packet make_packet(NodeId dst, std::uint32_t bytes, FlowId flow = 1) {
  Packet pkt;
  pkt.dst = dst;
  pkt.size_bytes = bytes;
  pkt.tcp.flow = flow;
  return pkt;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (int i = 0; i < 5; ++i) {
    Packet pkt = make_packet(0, 100);
    pkt.tcp.seq = i;
    EXPECT_TRUE(testutil::admit_copy(q, pkt));
  }
  for (int i = 0; i < 5; ++i) {
    auto pkt = q.pop();
    ASSERT_TRUE(pkt != nullptr);
    EXPECT_EQ(pkt->tcp.seq, i);
  }
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(testutil::admit_copy(q, make_packet(0, 100)));
  }
  EXPECT_FALSE(testutil::admit_copy(q, make_packet(0, 100)));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 3u);
  EXPECT_EQ(q.length_packets(), 3u);
  // Draining one opens a slot again.
  q.pop();
  EXPECT_TRUE(testutil::admit_copy(q, make_packet(0, 100)));
}

TEST(DropTailQueue, ByteAccounting) {
  DropTailQueue q(10);
  ASSERT_TRUE(testutil::admit_copy(q, make_packet(0, 100)));
  ASSERT_TRUE(testutil::admit_copy(q, make_packet(0, 250)));
  EXPECT_EQ(q.length_bytes(), 350u);
  q.pop();
  EXPECT_EQ(q.length_bytes(), 250u);
}

TEST(RedQueue, AcceptsBelowMinThreshold) {
  RedQueue::Params params;
  params.limit_packets = 50;
  params.min_thresh = 10;
  params.max_thresh = 30;
  RedQueue q(params, sim::Rng(1));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(testutil::admit_copy(q, make_packet(0, 100)));
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(RedQueue, DropsProbabilisticallyWhenCongested) {
  RedQueue::Params params;
  params.limit_packets = 100;
  params.min_thresh = 5;
  params.max_thresh = 15;
  params.weight = 0.5;  // fast-moving average for the test
  RedQueue q(params, sim::Rng(1));
  int dropped = 0;
  for (int i = 0; i < 200; ++i) {
    if (!testutil::admit_copy(q, make_packet(0, 100))) ++dropped;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_LT(q.length_packets(), 101u);
}

TEST(RedQueue, HardLimitEnforced) {
  RedQueue::Params params;
  params.limit_packets = 10;
  params.min_thresh = 100;  // early drops effectively off
  params.max_thresh = 200;
  RedQueue q(params, sim::Rng(1));
  int accepted = 0;
  for (int i = 0; i < 50; ++i) {
    if (testutil::admit_copy(q, make_packet(0, 100))) ++accepted;
  }
  EXPECT_LE(accepted, 10);
}

// --- Pool slots and the handles queues hold -----------------------------

TEST(PacketPool, ReleasedSlotsAreReusedMostRecentFirst) {
  PacketPool pool;
  PooledPacket a = pool.make(make_packet(1, 100));
  PooledPacket b = pool.make(make_packet(2, 200));
  PooledPacket c = pool.make(make_packet(3, 300));
  EXPECT_EQ(pool.allocated(), 3u);
  EXPECT_EQ(pool.live(), 3u);
  const Packet* b_slot = b.get();
  const Packet* c_slot = c.get();
  b.reset();
  c.reset();
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.idle(), 2u);
  // The slot released last is handed out first, and a warm pool adds no
  // storage.
  PooledPacket d = pool.make(make_packet(4, 400));
  PooledPacket e = pool.make(make_packet(5, 500));
  EXPECT_EQ(d.get(), c_slot);
  EXPECT_EQ(e.get(), b_slot);
  EXPECT_EQ(d->dst, 4);
  EXPECT_EQ(e->size_bytes, 500u);
  EXPECT_EQ(a->dst, 1);
  EXPECT_EQ(pool.allocated(), 3u);
  EXPECT_EQ(pool.live(), 3u);
}

TEST(PacketPool, MovedHandleReleasesItsSlotOnce) {
  PacketPool pool;
  {
    PooledPacket first = pool.make(make_packet(1, 100));
    const Packet* slot = first.get();
    PooledPacket second = std::move(first);
    EXPECT_EQ(first, nullptr);
    EXPECT_EQ(second.get(), slot);
    std::vector<PooledPacket> held;
    held.push_back(std::move(second));
    EXPECT_EQ(held.front().get(), slot);
    EXPECT_EQ(pool.live(), 1u);
  }
  // Three handles held the slot in turn; it went back exactly once.
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(PacketPool, HandlesStayValidWhileThePoolGrows) {
  PacketPool pool;
  PooledPacket first = pool.make(make_packet(7, 123));
  const Packet* slot = first.get();
  std::vector<PooledPacket> more;
  for (int i = 0; i < 1000; ++i) more.push_back(pool.make(make_packet(i, 64)));
  EXPECT_EQ(pool.allocated(), 1001u);
  EXPECT_EQ(first.get(), slot);
  EXPECT_EQ(first->dst, 7);
  EXPECT_EQ(first->size_bytes, 123u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(more[static_cast<std::size_t>(i)]->dst, i);
  }
}

TEST(DropTailQueue, AdmitTakesTheHandleOnlyWhenItAccepts) {
  PacketPool pool;
  DropTailQueue q(1);
  PooledPacket first = pool.make(make_packet(0, 100));
  const Packet* slot = first.get();
  ASSERT_TRUE(q.admit(first));
  EXPECT_EQ(first, nullptr);
  PooledPacket second = pool.make(make_packet(0, 100));
  ASSERT_FALSE(q.admit(second));  // full: the packet stays with the caller
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(pool.live(), 2u);
  second.reset();
  EXPECT_EQ(pool.live(), 1u);
  // The queued packet never left its slot.
  PooledPacket out = q.pop();
  EXPECT_EQ(out.get(), slot);
  EXPECT_EQ(q.length_packets(), 0u);
  EXPECT_EQ(pool.live(), 1u);
}

class TwoNodeFixture : public ::testing::Test {
 protected:
  TwoNodeFixture() : network(sched) {
    a = network.add_node();
    b = network.add_node();
    LinkConfig cfg;
    cfg.bandwidth_bps = 8e6;  // 1 byte/us
    cfg.delay = sim::Duration::millis(10);
    cfg.queue_limit_packets = 100;
    auto [ab_link, ba_link] = network.add_duplex_link(a, b, cfg);
    ab = ab_link;
    ba = ba_link;
    network.compute_static_routes();
    sink = std::make_unique<app::PacketSink>(network, b, 1);
  }

  sim::Scheduler sched;
  Network network;
  NodeId a{}, b{};
  Link* ab = nullptr;
  Link* ba = nullptr;
  std::unique_ptr<app::PacketSink> sink;
};

TEST_F(TwoNodeFixture, DeliversWithSerializationPlusPropagation) {
  // 1000 bytes at 8 Mbps = 1 ms serialization; +10 ms propagation.
  network.node(a).originate(make_packet(b, 1000));
  sched.run();
  EXPECT_EQ(sink->packets(), 1u);
  EXPECT_NEAR(sched.now().as_seconds(), 0.011, 1e-9);
}

TEST_F(TwoNodeFixture, BackToBackPacketsSerialize) {
  for (int i = 0; i < 3; ++i) network.node(a).originate(make_packet(b, 1000));
  sched.run();
  EXPECT_EQ(sink->packets(), 3u);
  // Last packet: 3 ms serialization (pipelined) + 10 ms propagation.
  EXPECT_NEAR(sched.now().as_seconds(), 0.013, 1e-9);
}

TEST_F(TwoNodeFixture, QueueOverflowDrops) {
  // 100-packet queue + 1 in transmission: flooding 200 drops the excess.
  for (int i = 0; i < 200; ++i) {
    network.node(a).originate(make_packet(b, 1000));
  }
  sched.run();
  EXPECT_EQ(sink->packets(), 101u);
  EXPECT_EQ(ab->queue().stats().dropped, 99u);
}

TEST_F(TwoNodeFixture, LossModelDropsFraction) {
  ab->set_loss_model(0.5, sim::Rng(9));
  // Spaced out so the queue never overflows (only loss-model drops).
  for (int i = 0; i < 1000; ++i) {
    sched.schedule_at(sim::TimePoint::from_seconds(0.001 * i),
                      [&] { network.node(a).originate(make_packet(b, 100)); });
  }
  sched.run();
  EXPECT_GT(sink->packets(), 400u);
  EXPECT_LT(sink->packets(), 600u);
  EXPECT_EQ(sink->packets() + ab->stats().lost, 1000u);
}

TEST_F(TwoNodeFixture, DropFilterIsDeterministic) {
  ab->set_drop_filter([](const Packet& pkt) { return pkt.tcp.seq == 2; });
  for (int i = 0; i < 5; ++i) {
    Packet pkt = make_packet(b, 100);
    pkt.tcp.seq = i;
    network.node(a).originate(std::move(pkt));
  }
  sched.run();
  EXPECT_EQ(sink->packets(), 4u);
  EXPECT_EQ(ab->stats().lost, 1u);
}

TEST_F(TwoNodeFixture, NoAgentCountsUnroutable) {
  network.node(a).originate(make_packet(b, 100, /*flow=*/99));
  sched.run();
  EXPECT_EQ(network.node(b).stats().unroutable, 1u);
}

TEST_F(TwoNodeFixture, AgentTableDemultiplexesEveryFlowIdRange) {
  // First and last slots of the agent table's pages, in the low ids the
  // paper plants use and at the workload range from 2^20.
  const std::vector<FlowId> flows = {4095, 4096, 1 << 20, (1 << 20) + 32767};
  Node& dst = network.node(b);
  EXPECT_EQ(dst.agent_count(), 1u);  // the fixture's sink on flow 1
  std::vector<std::unique_ptr<app::PacketSink>> sinks;
  for (const FlowId flow : flows) {
    sinks.push_back(std::make_unique<app::PacketSink>(network, b, flow));
  }
  EXPECT_EQ(dst.agent_count(), 1u + flows.size());
  for (const FlowId flow : flows) {
    network.node(a).originate(make_packet(b, 100, flow));
  }
  network.node(a).originate(make_packet(b, 100, /*flow=*/1));
  sched.run();
  EXPECT_EQ(sink->packets(), 1u);
  for (const auto& s : sinks) EXPECT_EQ(s->packets(), 1u);

  sinks[1].reset();  // detaches flow 4096
  EXPECT_EQ(dst.agent_count(), flows.size());
  // Unregistered (in an allocated page and past every page), detached and
  // negative flow ids have no agent of their own.
  const std::vector<FlowId> strays = {4097, 1 << 24, 4096, kInvalidFlow};
  const auto send_strays = [&] {
    for (const FlowId flow : strays) {
      network.node(a).originate(make_packet(b, 100, flow));
    }
    sched.run();
  };
  send_strays();
  EXPECT_EQ(dst.stats().unroutable, strays.size());

  class CountingAgent final : public Agent {
   public:
    void deliver(Packet&&) override { ++packets; }
    std::uint64_t packets = 0;
  } fallback;
  dst.set_default_agent(&fallback);
  send_strays();
  EXPECT_EQ(fallback.packets, strays.size());
  EXPECT_EQ(dst.stats().unroutable, strays.size());
  EXPECT_EQ(dst.agent_count(), flows.size());  // the fallback is not counted
  dst.set_default_agent(nullptr);
}

TEST(Network, ForwardsAcrossChain) {
  sim::Scheduler sched;
  Network network(sched);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(network.add_node());
  LinkConfig cfg;
  for (int i = 0; i + 1 < 5; ++i) {
    network.add_duplex_link(nodes[i], nodes[i + 1], cfg);
  }
  network.compute_static_routes();
  app::PacketSink sink(network, nodes[4], 1);
  network.node(nodes[0]).originate(make_packet(nodes[4], 500));
  sched.run();
  EXPECT_EQ(sink.packets(), 1u);
  // Three intermediate routers forwarded it.
  EXPECT_EQ(network.node(nodes[1]).stats().forwarded, 1u);
  EXPECT_EQ(network.node(nodes[3]).stats().forwarded, 1u);
}

TEST(Network, SourceRouteOverridesTables) {
  sim::Scheduler sched;
  Network network(sched);
  // Diamond: 0 -> {1 short, 2 long} -> 3.
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  const NodeId n2 = network.add_node();
  const NodeId n3 = network.add_node();
  LinkConfig fast;
  fast.delay = sim::Duration::millis(1);
  LinkConfig slow;
  slow.delay = sim::Duration::millis(50);
  network.add_duplex_link(n0, n1, fast);
  network.add_duplex_link(n1, n3, fast);
  network.add_duplex_link(n0, n2, slow);
  network.add_duplex_link(n2, n3, slow);
  network.compute_static_routes();
  app::PacketSink sink(network, n3, 1);

  // Shortest-path routing would go through n1; force the n2 path.
  const RouteVec route = {n2, n3};
  Packet pkt = make_packet(n3, 100);
  pkt.source_route = &route;
  network.node(n0).originate(std::move(pkt));
  sched.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(network.node(n2).stats().forwarded, 1u);
  EXPECT_EQ(network.node(n1).stats().forwarded, 0u);
}

TEST(Network, HopCountIncrements) {
  sim::Scheduler sched;
  Network network(sched);
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  const NodeId n2 = network.add_node();
  LinkConfig cfg;
  network.add_duplex_link(n0, n1, cfg);
  network.add_duplex_link(n1, n2, cfg);
  network.compute_static_routes();

  class HopRecorder final : public Agent {
   public:
    void deliver(Packet&& pkt) override { hops = pkt.hops; }
    int hops = -1;
  } recorder;
  network.node(n2).attach_agent(1, &recorder);
  network.node(n0).originate(make_packet(n2, 100));
  sched.run();
  EXPECT_EQ(recorder.hops, 2);
  network.node(n2).detach_agent(1);
}

TEST(Network, TotalDropsAggregates) {
  sim::Scheduler sched;
  Network network(sched);
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  LinkConfig cfg;
  cfg.queue_limit_packets = 1;
  cfg.bandwidth_bps = 1e3;  // slow: immediate queue build-up
  network.add_duplex_link(n0, n1, cfg);
  network.compute_static_routes();
  app::PacketSink sink(network, n1, 1);
  for (int i = 0; i < 10; ++i) {
    network.node(n0).originate(make_packet(n1, 100));
  }
  sched.run();
  EXPECT_EQ(network.total_drops(), 10u - sink.packets());
}

TEST(CbrSource, SendsAtConfiguredRate) {
  sim::Scheduler sched;
  Network network(sched);
  const NodeId n0 = network.add_node();
  const NodeId n1 = network.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = 100e6;
  network.add_duplex_link(n0, n1, cfg);
  network.compute_static_routes();
  app::PacketSink sink(network, n1, 5);
  app::CbrSource::Config cc;
  cc.rate_bps = 800e3;  // 100 pkt/s at 1000 B
  cc.packet_bytes = 1000;
  app::CbrSource cbr(network, n0, n1, 5, cc);
  cbr.start();
  sched.run_until(sim::TimePoint::from_seconds(1.0));
  cbr.stop();
  sched.run();
  EXPECT_NEAR(static_cast<double>(sink.packets()), 100.0, 2.0);
}

}  // namespace
}  // namespace tcppr::net
