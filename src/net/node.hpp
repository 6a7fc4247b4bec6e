// Network node: forwards packets and hosts transport agents.
//
// Forwarding uses the packet's source route when present (multi-path
// experiments) and the node's static next-hop table otherwise. Agents
// (TCP senders/receivers, CBR sinks) register per flow id. Every table is
// indexed by id (next hops and ECMP sets by destination, out links by
// neighbor, agents by flow in lazily allocated pages), so a hop and a
// delivery each cost an array load or two.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"

namespace tcppr::util {
class StateIO;
}

namespace tcppr::trace {
class Tracer;
}

namespace tcppr::net {

// A transport endpoint attached to a node. The packet is read in its pool
// slot; the slot is released when deliver() returns.
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void deliver(Packet&& pkt) = 0;
};

// Decides a full route for packets originated at a node; used to implement
// per-packet multi-path routing. Returning nullopt falls back to the
// node's next-hop table.
class SourceRoutingPolicy {
 public:
  struct Choice {
    // Nodes after this one, ending at dst. Points into a table the policy
    // owns for its whole life; packets carry the pointer.
    const RouteVec* route = nullptr;
    int path_id = -1;
  };
  virtual ~SourceRoutingPolicy() = default;
  virtual std::optional<Choice> choose_route(NodeId dst) = 0;
  // No-op, and nothing in src/ calls it: kept only because the perfbench
  // routing proxy overrides it.
  virtual void state(util::StateIO& io) { (void)io; }
};

struct NodeStats {
  std::uint64_t originated = 0;  // packets injected by local agents
  std::uint64_t forwarded = 0;
  std::uint64_t delivered_to_agent = 0;
  std::uint64_t unroutable = 0;  // no next hop / no agent: dropped
};

class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  // The pool packets originated here are written into: the network's, or
  // the node's LP's under ParallelSim (pools are not thread-safe).
  void set_packet_pool(std::shared_ptr<PacketPool> pool) {
    pool_ = std::move(pool);
  }
  PacketPool& packet_pool() { return *pool_; }
  const std::shared_ptr<PacketPool>& shared_packet_pool() const {
    return pool_;
  }

  void add_out_link(Link* link);
  void set_next_hop(NodeId dst, NodeId next_hop);
  // flow must be >= 0 and not already attached.
  void attach_agent(FlowId flow, Agent* agent);
  // No-op for a flow with no agent attached.
  void detach_agent(FlowId flow);
  // Fallback agent for flows with no per-flow registration: packets whose
  // flow id misses the agent table deliver here instead of counting as
  // unroutable. This is how the workload layer demultiplexes dynamically
  // arriving flows — one server agent accepts the first segment of a flow
  // that does not exist yet and creates its receiver on the spot (the
  // creation then registers per-flow, so the fallback is off the hot path
  // after the first packet). nullptr clears it.
  void set_default_agent(Agent* agent) { default_agent_ = agent; }
  Agent* default_agent() const { return default_agent_; }
  // Registered per-flow agents (does not count the default agent). The
  // lifecycle-leak tests assert this returns to baseline after churn.
  std::size_t agent_count() const { return agent_count_; }
  // Policy applies to packets originated here (not transit traffic).
  void set_source_routing_policy(SourceRoutingPolicy* policy) {
    routing_policy_ = policy;
  }
  void set_tracer(trace::Tracer* tracer, sim::Scheduler* sched) {
    tracer_ = tracer;
    sched_ = sched;
  }
  // ECMP-style equal-cost spreading for transit/originated traffic toward
  // dst: each packet picks uniformly among the given neighbors. Overrides
  // the single next-hop entry.
  void set_ecmp_next_hops(NodeId dst, std::vector<NodeId> next_hops,
                          sim::Rng rng);

  // Entry point for packets arriving from a link.
  void receive(PooledPacket pkt);
  // Entry point for locally generated packets, already written into this
  // node's pool.
  void originate(PooledPacket pkt);
  // Writes pkt into this node's pool, then originates it.
  void originate(const Packet& pkt) { originate(pool_->make(pkt)); }
  // Burst entry point: a sender window-burst, in this node's pool. Runs
  // the per-packet originate prologue (stats, routing policy, trace) and
  // routing decision in order, and admits each run of consecutive
  // same-link packets to its link once the run is routed. Packets it
  // cannot route stay in `burst` for the caller to release.
  void originate_burst(std::span<PooledPacket> burst);

  Link* link_to(NodeId neighbor) const;
  const NodeStats& stats() const { return stats_; }

 private:
  // Agents live in pages of 4096 slots (32 KB), allocated on first attach:
  // workload flow ids start at 2^20, so one flat table would be mostly
  // empty, while the few pages a flow-id range touches stay warm.
  static constexpr unsigned kAgentPageBits = 12;
  static constexpr std::size_t kAgentPageSize = std::size_t{1}
                                                << kAgentPageBits;
  using AgentPage = std::array<Agent*, kAgentPageSize>;

  void forward(PooledPacket pkt);
  // Forwarding decision only (source route / ECMP / next-hop table, with
  // the same stats and route_pos mutations as forward()); nullptr when
  // unroutable.
  Link* pick_link(Packet& pkt);
  // The originate() prologue shared with originate_burst().
  void originate_prologue(Packet& pkt);
  // The table slot of `flow`, or nullptr when its page was never
  // allocated (negative ids wrap far past every page).
  Agent** agent_slot(FlowId flow) {
    const auto f = static_cast<std::size_t>(flow);
    const std::size_t page = f >> kAgentPageBits;
    if (page >= agent_pages_.size() || agent_pages_[page] == nullptr) {
      return nullptr;
    }
    return &(*agent_pages_[page])[f & (kAgentPageSize - 1)];
  }
  Agent* find_agent(FlowId flow) {
    Agent** slot = agent_slot(flow);
    return slot != nullptr && *slot != nullptr ? *slot : default_agent_;
  }
  // Unroutable-delivery diagnostics are rate-limited per node: under a
  // churning workload every departed flow's in-flight ACKs arrive with no
  // agent (expected, they are counted and dropped), and a warning per
  // packet would drown the log.
  void warn_no_agent(FlowId flow);

  NodeId id_;
  std::vector<Link*> out_links_;      // by neighbor id; null: no link
  std::vector<Link*> next_hop_link_;  // by destination; null: no route
  std::vector<std::unique_ptr<AgentPage>> agent_pages_;  // by flow id
  std::size_t agent_count_ = 0;
  Agent* default_agent_ = nullptr;
  std::uint32_t no_agent_warnings_ = 0;
  // By destination; empty unless set_ecmp_next_hops ran.
  std::vector<std::vector<NodeId>> ecmp_table_;
  SourceRoutingPolicy* routing_policy_ = nullptr;
  std::shared_ptr<PacketPool> pool_;
  trace::Tracer* tracer_ = nullptr;
  sim::Scheduler* sched_ = nullptr;
  sim::Rng ecmp_rng_{0};
  NodeStats stats_;
};

}  // namespace tcppr::net
