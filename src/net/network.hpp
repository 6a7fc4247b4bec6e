// Network: owns nodes and links and builds static routes into each
// node's id-indexed next-hop table. The harness builds topologies through
// this facade.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/link_pump.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "routing/graph.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace tcppr::net {

struct LinkConfig {
  double bandwidth_bps = 10e6;
  sim::Duration delay = sim::Duration::millis(10);
  std::size_t queue_limit_packets = 100;
};

class Network {
 public:
  explicit Network(sim::Scheduler& sched) : sched_(sched), pump_(sched) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NodeId add_node();
  // One direction.
  Link& add_link(NodeId from, NodeId to, const LinkConfig& cfg);
  // One direction with a custom queue discipline (RED, priority bands...).
  Link& add_link_with_queue(NodeId from, NodeId to, double bandwidth_bps,
                            sim::Duration delay, std::unique_ptr<Queue> queue);
  // Both directions with identical parameters (the common case).
  std::pair<Link*, Link*> add_duplex_link(NodeId a, NodeId b,
                                          const LinkConfig& cfg);

  // Fills every node's next-hop table with shortest paths
  // (cost = propagation delay, hop-count tiebreak). Call after topology
  // construction; may be called again after adding links.
  void compute_static_routes();

  // Graph view (cost = link propagation delay in seconds plus a small
  // per-hop epsilon so hop count breaks delay ties).
  routing::Graph build_graph() const;

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  int node_count() const { return static_cast<int>(nodes_.size()); }
  Link* find_link(NodeId from, NodeId to);
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

  sim::Scheduler& scheduler() { return sched_; }

  // The pool every node and link is built with: packets in flight across
  // the whole network draw from one free list (ParallelSim re-points each
  // LP at its own).
  const std::shared_ptr<PacketPool>& packet_pool() const { return pool_; }

  // The packet-op carrier every link is built on (never null). Under
  // harness::ParallelSim the links move to their LPs' pumps and this one
  // idles.
  LinkPump* pump() { return &pump_; }
  const LinkPump* pump() const { return &pump_; }

  // Attaches a trace sink; all packet events at every node and link are
  // reported from then on.
  void add_trace_sink(trace::TraceSink* sink) { tracer_.add_sink(sink); }
  trace::Tracer& tracer() { return tracer_; }

  // Aggregate drop count over all links (queue + loss model).
  std::uint64_t total_drops() const;

  // Network-wide packet accounting, consistent at event boundaries. The
  // conservation invariant the validation layer checks is
  //   originated == delivered_to_agent + unroutable + link_lost
  //              + queue_dropped + in_queues + in_transit
  // which must hold at every instant the scheduler is between events. So
  // must live == in_queues + in_transit: between events every held packet
  // is queued or in a transmitter/propagating, each in its own slot.
  struct ConservationSnapshot {
    std::uint64_t originated = 0;
    std::uint64_t delivered_to_agent = 0;
    std::uint64_t unroutable = 0;
    std::uint64_t link_lost = 0;      // down/filter + loss-model drops
    std::uint64_t queue_dropped = 0;  // rejected at enqueue
    std::uint64_t in_queues = 0;      // sitting in link queues
    std::uint64_t in_transit = 0;     // in transmitters / propagating
    // Checked-out slots, summed over the distinct pools the links use.
    std::uint64_t live = 0;
    std::uint64_t accounted() const {
      return delivered_to_agent + unroutable + link_lost + queue_dropped +
             in_queues + in_transit;
    }
    bool balanced() const { return originated == accounted(); }
  };
  ConservationSnapshot conservation() const;

 private:
  sim::Scheduler& sched_;
  trace::Tracer tracer_;
  // Declared before nodes_ and links_: outlives every handle they hold.
  std::shared_ptr<PacketPool> pool_ = PacketPool::create();
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  // Declared after links_: destroyed first, so its parked carrier event is
  // cancelled while the links it serves are still alive.
  LinkPump pump_;
};

}  // namespace tcppr::net
