#include "net/node.hpp"

#include <utility>

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::net {

void Node::add_out_link(Link* link) {
  TCPPR_CHECK(link != nullptr);
  TCPPR_CHECK(link->from() == id_);
  const auto [it, inserted] = out_links_.emplace(link->to(), link);
  TCPPR_CHECK(inserted);  // one link per neighbor direction
  (void)it;
}

void Node::set_next_hop(NodeId dst, NodeId next_hop) {
  const auto link = out_links_.find(next_hop);
  TCPPR_CHECK(link != out_links_.end());
  next_hop_table_[dst] = Hop{next_hop, link->second};
}

void Node::attach_agent(FlowId flow, Agent* agent) {
  TCPPR_CHECK(agent != nullptr);
  const auto [it, inserted] = agents_.emplace(flow, agent);
  TCPPR_CHECK(inserted);
  (void)it;
}

void Node::detach_agent(FlowId flow) {
  agents_.erase(flow);
  if (cached_flow_ == flow) cached_agent_ = nullptr;
}

void Node::set_ecmp_next_hops(NodeId dst, std::vector<NodeId> next_hops,
                              sim::Rng rng) {
  TCPPR_CHECK(!next_hops.empty());
  for (const NodeId hop : next_hops) {
    TCPPR_CHECK(out_links_.contains(hop));
  }
  ecmp_table_[dst] = std::move(next_hops);
  ecmp_rng_ = rng;
}

Link* Node::link_to(NodeId neighbor) const {
  const auto it = out_links_.find(neighbor);
  return it == out_links_.end() ? nullptr : it->second;
}

std::optional<NodeId> Node::next_hop(NodeId dst) const {
  const auto it = next_hop_table_.find(dst);
  if (it == next_hop_table_.end()) return std::nullopt;
  return it->second.via;
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
    if (const auto ecmp = ecmp_table_.find(pkt.dst);
        ecmp != ecmp_table_.end()) {
      next = ecmp->second[ecmp_rng_.uniform_int(ecmp->second.size())];
    }
  }
  if (next == kInvalidNode) {
    // Static routing fast path: the table entry carries the resolved link,
    // so the common case is a single hash lookup.
    const auto it = next_hop_table_.find(pkt.dst);
    if (it != next_hop_table_.end()) {
      ++stats_.forwarded;
      return it->second.link;
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
