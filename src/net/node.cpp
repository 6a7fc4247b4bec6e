#include "net/node.hpp"

#include <utility>

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::net {

namespace {

// Grows `table` so that index `id` exists; ids are dense from 0.
template <typename T>
T& slot_at(std::vector<T>& table, int id) {
  TCPPR_CHECK(id >= 0);
  const auto i = static_cast<std::size_t>(id);
  if (i >= table.size()) table.resize(i + 1);
  return table[i];
}

}  // namespace

void Node::add_out_link(Link* link) {
  TCPPR_CHECK(link != nullptr);
  TCPPR_CHECK(link->from() == id_);
  Link*& slot = slot_at(out_links_, link->to());
  TCPPR_CHECK(slot == nullptr);  // one link per neighbor direction
  slot = link;
}

void Node::set_next_hop(NodeId dst, NodeId next_hop) {
  Link* link = link_to(next_hop);
  TCPPR_CHECK(link != nullptr);
  slot_at(next_hop_link_, dst) = link;
}

void Node::attach_agent(FlowId flow, Agent* agent) {
  TCPPR_CHECK(agent != nullptr);
  TCPPR_CHECK(flow >= 0);
  const auto f = static_cast<std::size_t>(flow);
  std::unique_ptr<AgentPage>& page =
      slot_at(agent_pages_, static_cast<int>(f >> kAgentPageBits));
  if (page == nullptr) page = std::make_unique<AgentPage>();
  Agent*& slot = (*page)[f & (kAgentPageSize - 1)];
  TCPPR_CHECK(slot == nullptr);
  slot = agent;
  ++agent_count_;
}

void Node::detach_agent(FlowId flow) {
  Agent** slot = agent_slot(flow);
  if (slot == nullptr || *slot == nullptr) return;
  *slot = nullptr;
  --agent_count_;
}

void Node::set_ecmp_next_hops(NodeId dst, std::vector<NodeId> next_hops,
                              sim::Rng rng) {
  TCPPR_CHECK(!next_hops.empty());
  for (const NodeId hop : next_hops) {
    TCPPR_CHECK(link_to(hop) != nullptr);
  }
  slot_at(ecmp_table_, dst) = std::move(next_hops);
  ecmp_rng_ = rng;
}

Link* Node::link_to(NodeId neighbor) const {
  const auto n = static_cast<std::size_t>(neighbor);
  return n < out_links_.size() ? out_links_[n] : nullptr;
}

void Node::warn_no_agent(FlowId flow) {
  static constexpr std::uint32_t kMaxWarnings = 8;
  if (no_agent_warnings_ >= kMaxWarnings) return;
  ++no_agent_warnings_;
  TCPPR_LOG_WARN("node", "node %d: no agent for flow %d%s", id_, flow,
                 no_agent_warnings_ == kMaxWarnings
                     ? " (suppressing further no-agent warnings)"
                     : "");
}

void Node::receive(PooledPacket pkt) {
  if (pkt->dst == id_) {
    Agent* agent = find_agent(pkt->tcp.flow);
    if (agent == nullptr) {
      ++stats_.unroutable;
      warn_no_agent(pkt->tcp.flow);
      return;
    }
    ++stats_.delivered_to_agent;
    if (tracer_ != nullptr && tracer_->active()) {
      tracer_->emit(sched_->now(), trace::EventType::kDeliver, *pkt, id_, id_);
    }
    agent->deliver(std::move(*pkt));
    return;  // the slot is released here
  }
  forward(std::move(pkt));
}

void Node::originate_prologue(Packet& pkt) {
  ++stats_.originated;
  // The uid packs this node's id over its own origination count: it
  // depends on neither the partition nor thread timing under ParallelSim,
  // where the node's LP alone originates here.
  pkt.uid = (static_cast<std::uint64_t>(id_) << kUidCountBits) |
            stats_.originated;
  pkt.src = id_;
  if (routing_policy_ != nullptr) {
    if (auto choice = routing_policy_->choose_route(pkt.dst)) {
      pkt.source_route = choice->route;
      pkt.route_pos = 0;
    }
  }
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->emit(sched_->now(), trace::EventType::kOriginate, pkt, id_,
                  pkt.dst);
  }
}

void Node::originate(PooledPacket pkt) {
  originate_prologue(*pkt);
  if (pkt->dst == id_) {  // loopback, mostly for tests
    receive(std::move(pkt));
    return;
  }
  forward(std::move(pkt));
}

void Node::originate_burst(std::span<PooledPacket> burst) {
  for (const PooledPacket& pkt : burst) {
    // Loopback packets re-enter agent processing between routing
    // decisions; that interleaving only the per-packet path preserves.
    if (pkt->dst == id_) {
      for (PooledPacket& p : burst) originate(std::move(p));
      return;
    }
  }
  // Per-packet prologue and routing decision run in order (policy and ECMP
  // RNG draws keep their sequence); a run of consecutive packets choosing
  // the same link is admitted once the next packet picks another link.
  // Relative to the per-packet path this only moves link admissions after
  // later routing decisions — admissions touch no RNG and no routing
  // state, so every per-packet outcome is unchanged.
  Link* run_link = nullptr;
  std::size_t run_begin = 0;
  const auto admit_run = [&](std::size_t run_end) {
    if (run_link == nullptr) return;
    for (std::size_t k = run_begin; k < run_end; ++k) {
      run_link->send(std::move(burst[k]));
    }
  };
  for (std::size_t i = 0; i < burst.size(); ++i) {
    originate_prologue(*burst[i]);
    Link* link = pick_link(*burst[i]);
    if (link != run_link) {
      admit_run(i);
      run_link = link;
      run_begin = i;
    }
  }
  admit_run(burst.size());
}

Link* Node::pick_link(Packet& pkt) {
  NodeId next = kInvalidNode;
  if (pkt.source_route != nullptr &&
      pkt.route_pos < pkt.source_route->size()) {
    next = (*pkt.source_route)[pkt.route_pos++];
  } else if (!ecmp_table_.empty()) {
    const auto d = static_cast<std::size_t>(pkt.dst);
    if (d < ecmp_table_.size() && !ecmp_table_[d].empty()) {
      const std::vector<NodeId>& hops = ecmp_table_[d];
      next = hops[ecmp_rng_.uniform_int(hops.size())];
    }
  }
  if (next == kInvalidNode) {
    // Static routing fast path: the table holds the resolved link, so the
    // common case is one array load.
    const auto d = static_cast<std::size_t>(pkt.dst);
    if (d < next_hop_link_.size() && next_hop_link_[d] != nullptr) {
      ++stats_.forwarded;
      return next_hop_link_[d];
    }
    ++stats_.unroutable;
    TCPPR_LOG_WARN("node", "node %d: no route to %d", id_, pkt.dst);
    return nullptr;
  }
  Link* link = link_to(next);
  if (link == nullptr) {
    ++stats_.unroutable;
    TCPPR_LOG_WARN("node", "node %d: no link to next hop %d", id_, next);
    return nullptr;
  }
  ++stats_.forwarded;
  return link;
}

void Node::forward(PooledPacket pkt) {
  Link* link = pick_link(*pkt);
  if (link != nullptr) link->send(std::move(pkt));
}

}  // namespace tcppr::net
