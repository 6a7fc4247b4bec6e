#include "app/sources.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace tcppr::app {

PacketSink::PacketSink(net::Network& network, net::NodeId local,
                       net::FlowId flow)
    : network_(network), local_(local), flow_(flow) {
  network_.node(local_).attach_agent(flow_, this);
}

PacketSink::~PacketSink() { network_.node(local_).detach_agent(flow_); }

void PacketSink::deliver(net::Packet&& pkt) {
  ++packets_;
  bytes_ += pkt.size_bytes;
  last_arrival_ = network_.scheduler().now();
}

CbrSource::CbrSource(net::Network& network, net::NodeId local,
                     net::NodeId remote, net::FlowId flow, Config config)
    : network_(network),
      local_(local),
      remote_(remote),
      flow_(flow),
      config_(config),
      rng_(config.seed),
      timer_(network.scheduler()) {
  TCPPR_CHECK(config_.rate_bps > 0);
  TCPPR_CHECK(config_.packet_bytes > 0);
}

sim::Duration CbrSource::interval() const {
  return sim::Duration::seconds(static_cast<double>(config_.packet_bytes) *
                                8.0 / config_.rate_bps);
}

void CbrSource::start() {
  TCPPR_CHECK(!running_);
  running_ = true;
  in_on_period_ = true;
  if (config_.mean_on > sim::Duration::zero()) {
    period_ends_ = network_.scheduler().now() +
                   sim::Duration::seconds(
                       rng_.exponential(config_.mean_on.as_seconds()));
  } else {
    period_ends_ = sim::TimePoint::max();
  }
  emit();
}

void CbrSource::stop() {
  running_ = false;
  timer_.cancel();
}

void CbrSource::emit() {
  if (!running_) return;
  const sim::TimePoint t = network_.scheduler().now();
  if (t >= period_ends_ && config_.mean_on > sim::Duration::zero()) {
    // Toggle on/off period.
    in_on_period_ = !in_on_period_;
    const sim::Duration mean =
        in_on_period_ ? config_.mean_on : config_.mean_off;
    period_ends_ =
        t + sim::Duration::seconds(rng_.exponential(
                std::max(mean.as_seconds(), 1e-9)));
  }
  if (in_on_period_) {
    net::Packet pkt;
    pkt.dst = remote_;
    pkt.size_bytes = config_.packet_bytes;
    pkt.type = net::PacketType::kCbr;
    pkt.tcp.flow = flow_;
    network_.node(local_).originate(pkt);
    ++sent_;
  }
  timer_.schedule_in(interval(), [this] { emit(); });
}

}  // namespace tcppr::app
