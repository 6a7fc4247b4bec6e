// Pool occupancy: a packet is written into one PacketPool slot when it is
// originated and keeps it until it is delivered or dropped, so between
// events the pools' live slots are exactly the packets queued or on a
// link. Each plant below runs in slices and checks that equality between
// them (the checker also asserts it at every sweep), with packets queued
// at some slice boundary so the check has something to count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "harness/parallel_run.hpp"
#include "harness/scenarios.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "validate/invariants.hpp"

namespace tcppr {
namespace {

using harness::Scenario;

// Checks the equality on the network as it stands; returns the packets
// queued, so callers can insist the plant actually queued some.
std::uint64_t expect_occupancy_balanced(const Scenario& s, int slice) {
  const net::Network::ConservationSnapshot snap = s.network.conservation();
  EXPECT_EQ(snap.live, snap.in_queues + snap.in_transit)
      << "slice " << slice << ": in_queues=" << snap.in_queues
      << " in_transit=" << snap.in_transit;
  return snap.in_queues;
}

// Runs a sequential scenario in 0.1 s slices under the checker.
void run_sequential_slices(Scenario& s, double seconds) {
  validate::InvariantChecker checker(s);
  checker.start();
  std::uint64_t max_queued = 0;
  const int slices = static_cast<int>(seconds * 10);
  for (int i = 1; i <= slices; ++i) {
    s.sched.run_until(sim::TimePoint::from_seconds(0.1 * i));
    max_queued = std::max(max_queued, expect_occupancy_balanced(s, i));
  }
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(max_queued, 0u);
}

TEST(PoolOccupancy, ManyFlowsDumbbellBetweenSlices) {
  harness::ManyFlowsConfig cfg;
  cfg.flows = 256;
  cfg.max_start_stagger = sim::Duration::seconds(0.5);
  auto s = harness::make_many_flows(cfg);
  run_sequential_slices(*s, 2.0);
}

TEST(PoolOccupancy, Fig6MeshBetweenSlices) {
  harness::MultipathConfig cfg;
  cfg.variant = harness::TcpVariant::kTcpPr;
  cfg.epsilon = 0;
  auto s = harness::make_multipath(cfg);
  run_sequential_slices(*s, 3.0);
}

TEST(PoolOccupancy, RedBottleneckBetweenSlices) {
  // src -- router =RED=> dst, with TCP-PR and SACK flows sharing the RED
  // queue (its drops release slots at admission, not at the head).
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;
  const net::NodeId src = nw.add_node();
  const net::NodeId router = nw.add_node();
  const net::NodeId dst = nw.add_node();
  net::LinkConfig access;
  access.bandwidth_bps = 1e9;
  access.delay = sim::Duration::millis(1);
  nw.add_duplex_link(src, router, access);
  net::RedQueue::Params red;
  red.limit_packets = 60;
  red.min_thresh = 5;
  red.max_thresh = 20;
  nw.add_link_with_queue(router, dst, 5e6, sim::Duration::millis(10),
                         std::make_unique<net::RedQueue>(red, sim::Rng(3)));
  net::LinkConfig back;
  back.bandwidth_bps = 5e6;
  back.delay = sim::Duration::millis(10);
  nw.add_link(dst, router, back);
  nw.compute_static_routes();
  for (net::FlowId f = 1; f <= 8; ++f) {
    s->add_flow(f % 2 == 0 ? harness::TcpVariant::kSack
                           : harness::TcpVariant::kTcpPr,
                src, dst, f, tcp::TcpConfig{}, core::TcpPrConfig{},
                sim::TimePoint::from_seconds(0.01 * f));
  }
  run_sequential_slices(*s, 3.0);
  EXPECT_GT(nw.total_drops(), 0u);
}

TEST(PoolOccupancy, ParallelRunAcrossShortCuts) {
  // The clustered mesh's 100 us cuts keep windows short and cross-cluster
  // packets riding the mailboxes at every barrier: each LP's pool must
  // still hold exactly its queued and on-link packets, drained cross-LP
  // arrivals included.
  harness::ClusteredMeshConfig cfg;
  cfg.clusters = 4;
  cfg.flows = 64;
  cfg.cross_flows = 4;
  cfg.max_start_stagger = sim::Duration::seconds(0.3);
  auto s = harness::make_clustered_mesh(cfg);
  validate::InvariantChecker checker(*s);
  harness::ParallelRunConfig pc;
  pc.lps = 4;
  pc.min_cut_lookahead = cfg.min_cut_lookahead();
  harness::ParallelSim psim(*s, pc);
  ASSERT_EQ(psim.lp_count(), 4);
  psim.set_checker(&checker);
  std::uint64_t max_queued = 0;
  for (int i = 1; i <= 10; ++i) {
    psim.run_until(sim::TimePoint::from_seconds(0.1 * i));
    max_queued = std::max(max_queued, expect_occupancy_balanced(*s, i));
  }
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(psim.exchanged(), 0u);
  EXPECT_GT(max_queued, 0u);
}

}  // namespace
}  // namespace tcppr
