// Per-layer timing from outside the simulator: proxies that stand in for
// the simulator's agents and routing policies and time each call into
// them. Nothing under src/ knows they exist; they are attached through the
// public Node calls (detach_agent + attach_agent, set_default_agent,
// set_source_routing_policy).
//
// The proxies override only Agent::deliver() and
// SourceRoutingPolicy::choose_route()/state(). A batched delivery
// (Agent::deliver_batch) therefore reaches the proxy through Agent's
// default per-packet loop, which the real agents define to be equivalent;
// the self-test checks the traced delivery hash equals the untraced one.
//
// Spans nest: a routing choice happens inside the sender or receiver call
// that originated the packet, so each span adds its duration to the open
// span's child time and a layer's self time is total minus children. The
// open span is per thread, and each proxy belongs to one node and so to
// one logical process: under ParallelSim a proxy is only ever called from
// the thread running its node's shard, and its tally needs no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>

#include "net/node.hpp"

namespace perfbench {

enum class Layer : int {
  kCore,        // TCP-PR sender (core/)
  kSack,        // SACK sender (tcp/)
  kReceiver,    // TCP receiver (tcp/)
  kRouting,     // multipath source routing (routing/)
  kFlowServer,  // workload FlowServer demux (workload/)
  kCount
};

struct Tally {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;  // time inside spans nested in this one
  std::int64_t self_ns() const { return total_ns - child_ns; }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline thread_local Tally* t_open_span = nullptr;

class Span {
 public:
  explicit Span(Tally& tally)
      : tally_(tally), parent_(t_open_span), start_(now_ns()) {
    t_open_span = &tally_;
  }
  ~Span() {
    const std::int64_t d = now_ns() - start_;
    ++tally_.calls;
    tally_.total_ns += d;
    if (parent_ != nullptr) parent_->child_ns += d;
    t_open_span = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tally& tally_;
  Tally* parent_;
  std::int64_t start_;
};

class AgentProxy final : public tcppr::net::Agent {
 public:
  AgentProxy(tcppr::net::Agent& inner, Layer layer)
      : inner_(inner), layer_(layer) {}
  void deliver(tcppr::net::Packet&& pkt) override {
    Span span(tally_);
    inner_.deliver(std::move(pkt));
  }
  Layer layer() const { return layer_; }
  const Tally& tally() const { return tally_; }

 private:
  tcppr::net::Agent& inner_;
  Layer layer_;
  Tally tally_;
};

class RoutingProxy final : public tcppr::net::SourceRoutingPolicy {
 public:
  explicit RoutingProxy(tcppr::net::SourceRoutingPolicy& inner)
      : inner_(inner) {}
  std::optional<Choice> choose_route(tcppr::net::NodeId dst) override {
    Span span(tally_);
    return inner_.choose_route(dst);
  }
  void state(tcppr::util::StateIO& io) override { inner_.state(io); }
  const Tally& tally() const { return tally_; }

 private:
  tcppr::net::SourceRoutingPolicy& inner_;
  Tally tally_;
};

}  // namespace perfbench
