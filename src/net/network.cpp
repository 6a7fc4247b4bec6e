#include "net/network.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace tcppr::net {

NodeId Network::add_node() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  TCPPR_CHECK(id < (NodeId{1} << (64 - kUidCountBits)));  // fits a uid
  nodes_.push_back(std::make_unique<Node>(id));
  nodes_.back()->set_tracer(&tracer_, &sched_);
  nodes_.back()->set_packet_pool(pool_);
  return id;
}

Link& Network::add_link(NodeId from, NodeId to, const LinkConfig& cfg) {
  return add_link_with_queue(
      from, to, cfg.bandwidth_bps, cfg.delay,
      std::make_unique<DropTailQueue>(cfg.queue_limit_packets));
}

Link& Network::add_link_with_queue(NodeId from, NodeId to,
                                   double bandwidth_bps, sim::Duration delay,
                                   std::unique_ptr<Queue> queue) {
  TCPPR_CHECK(from >= 0 && from < node_count());
  TCPPR_CHECK(to >= 0 && to < node_count());
  TCPPR_CHECK(from != to);
  links_.push_back(std::make_unique<Link>(pump_, from, to, bandwidth_bps,
                                          delay, std::move(queue)));
  Link& link = *links_.back();
  link.set_destination(nodes_[static_cast<std::size_t>(to)].get());
  link.set_tracer(&tracer_);
  link.set_packet_pool(pool_);
  nodes_[static_cast<std::size_t>(from)]->add_out_link(&link);
  return link;
}

std::pair<Link*, Link*> Network::add_duplex_link(NodeId a, NodeId b,
                                                 const LinkConfig& cfg) {
  Link& ab = add_link(a, b, cfg);
  Link& ba = add_link(b, a, cfg);
  return {&ab, &ba};
}

routing::Graph Network::build_graph() const {
  routing::Graph g(node_count());
  for (const auto& link : links_) {
    // Seconds of propagation delay + 1us per hop: prefers fewer hops among
    // equal-delay routes and keeps costs strictly positive.
    g.add_edge(link->from(), link->to(),
               link->prop_delay().as_seconds() + 1e-6);
  }
  return g;
}

void Network::compute_static_routes() {
  const routing::Graph g = build_graph();
  for (NodeId src = 0; src < node_count(); ++src) {
    const auto tree = g.shortest_paths(src);
    for (NodeId dst = 0; dst < node_count(); ++dst) {
      if (dst == src) continue;
      if (tree.pred[static_cast<std::size_t>(dst)] == kInvalidNode) continue;
      // Walk predecessors back from dst to find the first hop out of src.
      NodeId hop = dst;
      while (tree.pred[static_cast<std::size_t>(hop)] != src) {
        hop = tree.pred[static_cast<std::size_t>(hop)];
        TCPPR_CHECK(hop != kInvalidNode);
      }
      nodes_[static_cast<std::size_t>(src)]->set_next_hop(dst, hop);
    }
  }
}

Node& Network::node(NodeId id) {
  TCPPR_CHECK(id >= 0 && id < node_count());
  return *nodes_[static_cast<std::size_t>(id)];
}

const Node& Network::node(NodeId id) const {
  TCPPR_CHECK(id >= 0 && id < node_count());
  return *nodes_[static_cast<std::size_t>(id)];
}

Link* Network::find_link(NodeId from, NodeId to) {
  TCPPR_CHECK(from >= 0 && from < node_count());
  return nodes_[static_cast<std::size_t>(from)]->link_to(to);
}

std::uint64_t Network::total_drops() const {
  std::uint64_t total = 0;
  for (const auto& link : links_) total += link->total_drops();
  return total;
}

Network::ConservationSnapshot Network::conservation() const {
  ConservationSnapshot snap;
  for (const auto& node : nodes_) {
    const NodeStats& ns = node->stats();
    snap.originated += ns.originated;
    snap.delivered_to_agent += ns.delivered_to_agent;
    snap.unroutable += ns.unroutable;
  }
  std::vector<const PacketPool*> pools;
  for (const auto& link : links_) {
    snap.link_lost += link->stats().lost;
    snap.queue_dropped += link->queue().stats().dropped;
    snap.in_queues += link->queue().length_packets();
    // A cut link's injected packets wait on the destination shard, in
    // the destination pool.
    snap.in_transit += link->in_transit() + link->injected_pending();
    const PacketPool* pool = &link->packet_pool();
    if (std::find(pools.begin(), pools.end(), pool) == pools.end()) {
      pools.push_back(pool);
      snap.live += pool->live();
    }
  }
  return snap;
}

}  // namespace tcppr::net
