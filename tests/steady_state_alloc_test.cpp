// Steady-state allocation tests: once a flow has reached its working
// window, moving packets must not touch the heap. The TCP-PR sender keeps
// its outstanding window and drop-timer index, the SACK and Reno senders
// their transmission records and scoreboard, and the receiver its
// out-of-order buffer and SACK runs, in storage that only resizes when the
// window does; the scheduler, link pump, queues and packet pool are
// already allocation-free once warm, and so is a node's agent table once
// its pages exist.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.hpp"
#include "harness/scenarios.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "workload/workload.hpp"

namespace tcppr {
namespace {

TEST(SteadyStateAllocations, TcpPrOnReorderingMeshAllocatesNothing) {
  // The fig-6 mesh at epsilon 0: one TCP-PR flow spraying packets over 4
  // disjoint paths of 2..5 hops, so nearly every arrival is out of order
  // (the paper's persistent-reordering case).
  harness::MultipathConfig c;
  c.variant = harness::TcpVariant::kTcpPr;
  c.epsilon = 0;
  c.link_delay = sim::Duration::millis(60);
  auto s = harness::make_multipath(c);
  s->sched.run_until(sim::TimePoint::from_seconds(50));  // warm up
  const std::uint64_t delivered_before =
      s->network.conservation().delivered_to_agent;

  const std::uint64_t before = testutil::heap_allocations();
  s->sched.run_until(sim::TimePoint::from_seconds(100));
  const std::uint64_t allocations = testutil::heap_allocations() - before;

  const std::uint64_t delivered =
      s->network.conservation().delivered_to_agent - delivered_before;
  EXPECT_GT(delivered, 100000u);  // the window did real work
  EXPECT_EQ(allocations, 0u) << "over " << delivered << " delivered packets";
}

// Heap allocations of the 256-flow many-flows dumbbell from 10 to 20 s.
std::uint64_t many_flows_allocations(double pr_fraction) {
  harness::ManyFlowsConfig c;
  c.flows = 256;
  c.pr_fraction = pr_fraction;
  auto s = harness::make_many_flows(c);
  s->sched.run_until(sim::TimePoint::from_seconds(10));  // warm up
  const std::uint64_t before = testutil::heap_allocations();
  s->sched.run_until(sim::TimePoint::from_seconds(20));
  return testutil::heap_allocations() - before;
}

TEST(SteadyStateAllocations, AgentAttachDetachAllocatesNothingOnceWarm) {
  // Flow churn attaches and detaches an agent at both hosts of every flow;
  // once the agent table covers the flow-id range, that touches no heap.
  sim::Scheduler sched;
  net::Network network(sched);
  net::Node& node = network.node(network.add_node());
  class IdleAgent final : public net::Agent {
   public:
    void deliver(net::Packet&&) override {}
  } agent;
  constexpr net::FlowId kFirst = 1 << 20;  // the workload flow-id base
  constexpr int kRange = 4096;
  for (int i = 0; i < kRange; ++i) {  // warm up
    node.attach_agent(kFirst + i, &agent);
    node.detach_agent(kFirst + i);
  }

  const std::uint64_t before = testutil::heap_allocations();
  for (int i = 0; i < 10000; ++i) {
    const net::FlowId flow = kFirst + i % kRange;
    node.attach_agent(flow, &agent);
    EXPECT_EQ(node.agent_count(), 1u);
    node.detach_agent(flow);
  }
  node.detach_agent(kFirst);       // already detached
  node.detach_agent(kFirst << 4);  // past every allocated page
  EXPECT_EQ(testutil::heap_allocations() - before, 0u);
  EXPECT_EQ(node.agent_count(), 0u);
}

TEST(SteadyStateAllocations, SackFlowsAllocateLikeTcpPr) {
  // The same plant with every flow on SACK and then every flow on TCP-PR:
  // what is left (retransmission records, losses, timer churn) must not
  // grow with the segments sent and acknowledged.
  const std::uint64_t sack = many_flows_allocations(0.0);
  const std::uint64_t tcp_pr = many_flows_allocations(1.0);
  EXPECT_LE(sack, tcp_pr * 3 / 2)
      << "all-SACK " << sack << " against all-TCP-PR " << tcp_pr;
}

TEST(SteadyStateAllocations, ChurnAllocatesAFewTimesPerArrival) {
  // perfbench's churn-10k plant: Poisson mice of 2-4 segments at 10k
  // arrivals/s. Every arrival builds a sender, a receiver and their
  // callbacks; the transfer size is a plain count and the receiver's data
  // tap fits std::function's inline buffer, so neither allocates.
  harness::DumbbellConfig c;
  c.pr_flows = 0;
  c.sack_flows = 0;
  c.bottleneck_bw_bps = 40e6 * 10;
  c.access_bw_bps = 4 * c.bottleneck_bw_bps;
  c.bottleneck_queue = 500;
  c.access_queue = 1000;
  auto s = harness::make_dumbbell(c);
  workload::WorkloadConfig wc;
  wc.kind = workload::WorkloadKind::kPoisson;
  wc.arrival_rate = 10000;
  wc.min_segments = 2;
  wc.max_segments = 4;
  wc.quarantine = sim::Duration::millis(300);
  wc.reap_idle = sim::Duration::millis(150);
  wc.reap_sweep = sim::Duration::millis(50);
  wc.max_concurrent = 8192;
  wc.id_slots = 1 << 15;
  workload::WorkloadEngine engine(*s, wc);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(1));  // warm up
  const std::uint64_t arrivals_before = engine.stats().arrivals;

  const std::uint64_t before = testutil::heap_allocations();
  s->sched.run_until(sim::TimePoint::from_seconds(3));
  const std::uint64_t allocations = testutil::heap_allocations() - before;

  const std::uint64_t arrivals = engine.stats().arrivals - arrivals_before;
  ASSERT_GT(arrivals, 15000u);
  const double per_arrival =
      static_cast<double>(allocations) / static_cast<double>(arrivals);
  EXPECT_LE(per_arrival, 5.2) << allocations << " allocations over "
                              << arrivals << " arrivals";
}

}  // namespace
}  // namespace tcppr
