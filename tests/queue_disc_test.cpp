// Tests for the extension substrates that create reordering without
// multi-path routing: the DiffServ-style priority queue, per-hop ECMP
// spreading, and the MANET link-outage model.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/sources.hpp"
#include "net/link_flapper.hpp"
#include "net/network.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace tcppr::net {
namespace {

Packet pkt_of(FlowId flow, SeqNo seq, std::uint32_t bytes = 100) {
  Packet pkt;
  pkt.size_bytes = bytes;
  pkt.tcp.flow = flow;
  pkt.tcp.seq = seq;
  return pkt;
}

TEST(PriorityQueue, StrictPriorityOrdering) {
  // Band by flow id: flow 0 -> band 0 (high), flow 1 -> band 1.
  PriorityQueue q(2, 10,
                  [](const Packet& p) { return p.tcp.flow == 0 ? 0 : 1; });
  ASSERT_TRUE(testutil::admit_copy(q, pkt_of(1, 100)));
  ASSERT_TRUE(testutil::admit_copy(q, pkt_of(1, 101)));
  ASSERT_TRUE(testutil::admit_copy(q, pkt_of(0, 200)));
  // High-priority packet overtakes the two waiting low-priority ones.
  EXPECT_EQ(q.pop()->tcp.seq, 200);
  EXPECT_EQ(q.pop()->tcp.seq, 100);
  EXPECT_EQ(q.pop()->tcp.seq, 101);
}

TEST(PriorityQueue, PerBandLimits) {
  PriorityQueue q(2, 2, [](const Packet& p) { return p.tcp.flow; });
  EXPECT_TRUE(testutil::admit_copy(q, pkt_of(0, 1)));
  EXPECT_TRUE(testutil::admit_copy(q, pkt_of(0, 2)));
  EXPECT_FALSE(testutil::admit_copy(q, pkt_of(0, 3)));  // band 0 full
  EXPECT_TRUE(testutil::admit_copy(q, pkt_of(1, 4)));   // band 1 still open
  EXPECT_EQ(q.band_length(0), 2u);
  EXPECT_EQ(q.band_length(1), 1u);
  EXPECT_EQ(q.length_packets(), 3u);
  EXPECT_EQ(q.stats().dropped, 1u);
}

TEST(PriorityQueue, ReordersAFlowMarkedIntoTwoBands) {
  // DiffServ reordering within one flow: odd segments marked high
  // priority overtake even ones queued behind them.
  PriorityQueue q(2, 100,
                  [](const Packet& p) { return p.tcp.seq % 2 == 1 ? 0 : 1; });
  for (SeqNo s = 0; s < 6; ++s) ASSERT_TRUE(testutil::admit_copy(q, pkt_of(1, s)));
  std::vector<SeqNo> out;
  while (auto p = q.pop()) out.push_back(p->tcp.seq);
  EXPECT_EQ(out, (std::vector<SeqNo>{1, 3, 5, 0, 2, 4}));
}

TEST(PriorityQueue, EndToEndDiffServReordering) {
  // A bottleneck with per-packet random marking reorders a TCP-PR flow;
  // TCP-PR must not retransmit anything.
  sim::Scheduler sched;
  Network network(sched);
  const auto a = network.add_node();
  const auto r = network.add_node();
  const auto b = network.add_node();
  LinkConfig access;
  access.bandwidth_bps = 1e9;
  network.add_duplex_link(a, r, access);
  // Forward direction: priority queue with probabilistic marking.
  auto rng = std::make_shared<sim::Rng>(7);
  auto queue = std::make_unique<PriorityQueue>(
      2, 200, [rng](const Packet&) { return rng->bernoulli(0.3) ? 0 : 1; });
  network.add_link_with_queue(r, b, 5e6, sim::Duration::millis(10),
                              std::move(queue));
  LinkConfig back;
  back.bandwidth_bps = 5e6;
  back.delay = sim::Duration::millis(10);
  network.add_link(b, r, back);  // ACK return path: b -> r -> a
  network.compute_static_routes();

  tcp::ReceiverConfig rc;
  tcp::Receiver recv(network, b, a, 1, rc);
  tcp::TcpConfig tc;
  tc.max_cwnd = 30;
  core::TcpPrSender sender(network, a, b, 1, tc);
  sender.start();
  sched.run_until(sim::TimePoint::from_seconds(10));
  EXPECT_GT(recv.stats().out_of_order, 100u);  // reordering happened
  EXPECT_EQ(sender.stats().retransmissions, 0u);
  EXPECT_EQ(recv.stats().duplicates, 0u);
  EXPECT_GT(sender.stats().segments_acked, 2000);
}

TEST(PriorityQueue, PerBandStatsAttributeDropsAndBytes) {
  PriorityQueue q(2, 2, [](const Packet& p) { return p.tcp.flow; });
  ASSERT_TRUE(testutil::admit_copy(q, pkt_of(0, 1, 100)));
  ASSERT_TRUE(testutil::admit_copy(q, pkt_of(0, 2, 100)));
  ASSERT_FALSE(testutil::admit_copy(q, pkt_of(0, 3, 100)));  // band 0 full
  ASSERT_TRUE(testutil::admit_copy(q, pkt_of(1, 4, 300)));
  EXPECT_EQ(q.band_stats(0).enqueued, 2u);
  EXPECT_EQ(q.band_stats(0).dropped, 1u);
  EXPECT_EQ(q.band_stats(0).bytes_dropped, 100u);
  EXPECT_EQ(q.band_stats(1).enqueued, 1u);
  EXPECT_EQ(q.band_stats(1).dropped, 0u);
  EXPECT_EQ(q.band_stats(1).bytes_enqueued, 300u);
  // Drain: dequeues attribute to the band each packet left from.
  while (q.pop()) {
  }
  EXPECT_EQ(q.band_stats(0).dequeued, 2u);
  EXPECT_EQ(q.band_stats(0).bytes_dequeued, 200u);
  EXPECT_EQ(q.band_stats(1).dequeued, 1u);
  EXPECT_EQ(q.band_stats(1).bytes_dequeued, 300u);
  // Aggregates equal the sum of the bands.
  EXPECT_EQ(q.stats().dequeued, 3u);
  EXPECT_EQ(q.stats().bytes_dequeued, 500u);
  EXPECT_EQ(q.stats().dropped, 1u);
}

TEST(QueueStats, BytesDequeuedTrackedByAllDisciplines) {
  DropTailQueue droptail(10);
  ASSERT_TRUE(testutil::admit_copy(droptail, pkt_of(1, 1, 120)));
  ASSERT_TRUE(testutil::admit_copy(droptail, pkt_of(1, 2, 80)));
  droptail.pop();
  EXPECT_EQ(droptail.stats().bytes_dequeued, 120u);
  droptail.pop();
  EXPECT_EQ(droptail.stats().bytes_dequeued, 200u);

  RedQueue red(RedQueue::Params{}, sim::Rng(1));
  ASSERT_TRUE(testutil::admit_copy(red, pkt_of(1, 1, 250)));
  red.pop();
  EXPECT_EQ(red.stats().bytes_dequeued, 250u);

  PriorityQueue prio(2, 10, [](const Packet&) { return 0; });
  ASSERT_TRUE(testutil::admit_copy(prio, pkt_of(1, 1, 60)));
  prio.pop();
  EXPECT_EQ(prio.stats().bytes_dequeued, 60u);
}

TEST(RedQueue, IdlePeriodDecaysAverage) {
  // Regression: the EWMA average must keep decaying while the queue sits
  // empty (Floyd & Jacobson idle adjustment). Before the fix the average
  // froze at its busy-period value and early-dropped the first burst after
  // an idle spell.
  RedQueue::Params params;
  params.weight = 0.2;  // fast EWMA so a handful of packets moves avg
  sim::Scheduler sched;
  RedQueue timed(params, sim::Rng(1));
  // 8 Mbps drain rate: one 500-byte idle packet every 0.5 ms.
  timed.set_time_source(&sched, 8e6);
  RedQueue untimed(params, sim::Rng(1));  // no clock: pre-fix behaviour

  for (SeqNo s = 0; s < 8; ++s) {
    ASSERT_TRUE(testutil::admit_copy(timed, pkt_of(1, s)));
    ASSERT_TRUE(testutil::admit_copy(untimed, pkt_of(1, s)));
  }
  while (timed.pop()) {
  }
  while (untimed.pop()) {
  }
  const double avg_busy = timed.average_queue();
  ASSERT_GT(avg_busy, 2.0);
  ASSERT_DOUBLE_EQ(untimed.average_queue(), avg_busy);

  // One idle second is 2000 small-packet transmission times; by the next
  // arrival the average must have decayed to nothing.
  sched.run_until(sim::TimePoint::from_seconds(1.0));
  ASSERT_TRUE(testutil::admit_copy(timed, pkt_of(1, 100)));
  ASSERT_TRUE(testutil::admit_copy(untimed, pkt_of(1, 100)));
  EXPECT_LT(timed.average_queue(), 0.05);
  // Without a time source the stale average persists.
  EXPECT_GT(untimed.average_queue(), avg_busy * 0.5);
}

TEST(Ecmp, SpreadsPacketsAcrossNextHops) {
  // Diamond: 0 -> {1, 2} -> 3 with per-hop ECMP at node 0.
  sim::Scheduler sched;
  Network network(sched);
  const auto n0 = network.add_node();
  const auto n1 = network.add_node();
  const auto n2 = network.add_node();
  const auto n3 = network.add_node();
  LinkConfig cfg;
  network.add_duplex_link(n0, n1, cfg);
  network.add_duplex_link(n0, n2, cfg);
  network.add_duplex_link(n1, n3, cfg);
  network.add_duplex_link(n2, n3, cfg);
  network.compute_static_routes();
  network.node(n0).set_ecmp_next_hops(n3, {n1, n2}, sim::Rng(5));

  app::PacketSink sink(network, n3, 1);
  for (int i = 0; i < 1000; ++i) {
    // Spaced out so queues never overflow; only routing is under test.
    sched.schedule_at(sim::TimePoint::from_seconds(0.001 * i), [&] {
      Packet pkt;
      pkt.dst = n3;
      pkt.size_bytes = 100;
      pkt.tcp.flow = 1;
      network.node(n0).originate(std::move(pkt));
    });
  }
  sched.run();
  EXPECT_EQ(sink.packets(), 1000u);
  const auto via_n1 = network.node(n1).stats().forwarded;
  const auto via_n2 = network.node(n2).stats().forwarded;
  EXPECT_EQ(via_n1 + via_n2, 1000u);
  EXPECT_GT(via_n1, 350u);
  EXPECT_GT(via_n2, 350u);
}

TEST(Ecmp, UnequalDelayPathsReorderTraffic) {
  sim::Scheduler sched;
  Network network(sched);
  const auto n0 = network.add_node();
  const auto n1 = network.add_node();
  const auto n2 = network.add_node();
  const auto n3 = network.add_node();
  LinkConfig fast;
  fast.delay = sim::Duration::millis(2);
  LinkConfig slow;
  slow.delay = sim::Duration::millis(30);
  network.add_duplex_link(n0, n1, fast);
  network.add_duplex_link(n1, n3, fast);
  network.add_duplex_link(n0, n2, slow);
  network.add_duplex_link(n2, n3, slow);
  network.compute_static_routes();
  network.node(n0).set_ecmp_next_hops(n3, {n1, n2}, sim::Rng(5));

  tcp::Receiver recv(network, n3, n0, 1);
  tcp::TcpConfig tc;
  tc.max_cwnd = 20;
  core::TcpPrSender sender(network, n0, n3, 1, tc);
  sender.start();
  sched.run_until(sim::TimePoint::from_seconds(5));
  EXPECT_GT(recv.stats().out_of_order, 50u);
  EXPECT_EQ(recv.stats().duplicates, 0u);  // TCP-PR stays calm
}

TEST(LinkFlapper, TogglesLinks) {
  sim::Scheduler sched;
  Network network(sched);
  const auto a = network.add_node();
  const auto b = network.add_node();
  LinkConfig cfg;
  auto [ab, ba] = network.add_duplex_link(a, b, cfg);
  LinkFlapper::Config fc;
  fc.mean_up = sim::Duration::millis(100);
  fc.mean_down = sim::Duration::millis(100);
  LinkFlapper flapper(sched, {ab, ba}, fc);
  flapper.start();
  sched.run_until(sim::TimePoint::from_seconds(10));
  EXPECT_GT(flapper.transitions(), 20u);
  flapper.stop();
  EXPECT_FALSE(ab->is_down());
  EXPECT_FALSE(ba->is_down());
}

TEST(LinkFlapper, DownLinkDropsTraffic) {
  sim::Scheduler sched;
  Network network(sched);
  const auto a = network.add_node();
  const auto b = network.add_node();
  LinkConfig cfg;
  auto [ab, ba] = network.add_duplex_link(a, b, cfg);
  (void)ba;
  network.compute_static_routes();
  ab->set_down(true);
  app::PacketSink sink(network, b, 1);
  Packet pkt;
  pkt.dst = b;
  pkt.size_bytes = 100;
  pkt.tcp.flow = 1;
  network.node(a).originate(std::move(pkt));
  sched.run();
  EXPECT_EQ(sink.packets(), 0u);
  EXPECT_EQ(ab->stats().lost, 1u);
}

TEST(LinkFlapper, TcpSurvivesOutages) {
  testutil::PathFixture f;
  auto* sender = f.add_flow(harness::TcpVariant::kTcpPr, 1);
  LinkFlapper::Config fc;
  fc.mean_up = sim::Duration::seconds(2);
  fc.mean_down = sim::Duration::millis(300);
  fc.seed = 3;
  LinkFlapper flapper(f.sched, {f.fwd, f.rev}, fc);
  flapper.start();
  sender->start();
  f.run_for(40);
  flapper.stop();
  f.run_for(10);
  // Makes real progress despite repeated outages.
  EXPECT_GT(sender->stats().segments_acked, 5000);
}

}  // namespace
}  // namespace tcppr::net
