#include "harness/short_flows.hpp"

#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace tcppr::harness {

ShortFlowPool::ShortFlowPool(net::Network& network, net::NodeId src,
                             net::NodeId dst, Config config)
    : network_(network),
      src_(src),
      dst_(dst),
      config_(config),
      rng_(config.seed),
      arrival_timer_(network.scheduler()),
      next_flow_(config.first_flow_id) {
  TCPPR_CHECK(config_.mean_interarrival_s > 0);
  TCPPR_CHECK(config_.min_segments >= 1);
  TCPPR_CHECK(config_.max_segments >= config_.min_segments);
  TCPPR_CHECK(config_.max_concurrent > 0);
}

ShortFlowPool::~ShortFlowPool() { stop(); }

void ShortFlowPool::start() {
  TCPPR_CHECK(!running_);
  running_ = true;
  arrival_timer_.schedule_in(
      sim::Duration::seconds(rng_.exponential(config_.mean_interarrival_s)),
      [this] { spawn(); });
}

void ShortFlowPool::stop() {
  running_ = false;
  arrival_timer_.cancel();
  active_.clear();
}

double ShortFlowPool::mean_completion_time() const {
  if (durations_.empty()) return 0;
  double sum = 0;
  for (const double d : durations_) sum += d;
  return sum / static_cast<double>(durations_.size());
}

void ShortFlowPool::spawn() {
  if (!running_) return;
  if (static_cast<int>(active_.size()) < config_.max_concurrent) {
    const net::FlowId flow = next_flow_++;
    // Log-uniform size in [min, max]: many mice, occasional bigger fish.
    const double log_min =
        std::log(static_cast<double>(config_.min_segments));
    const double log_max =
        std::log(static_cast<double>(config_.max_segments) + 1.0);
    const auto segments = static_cast<net::SeqNo>(
        std::exp(rng_.uniform(log_min, log_max)));

    ActiveFlow entry;
    tcp::ReceiverConfig rc;
    rc.segment_bytes = config_.tcp.segment_bytes;
    entry.receiver = std::make_unique<tcp::Receiver>(network_, dst_, src_,
                                                     flow, rc);
    entry.sender = make_sender(config_.variant, network_, src_, dst_, flow,
                               config_.tcp, config_.pr);
    entry.sender->set_transfer_segments(segments);
    entry.sender->set_completion_callback([this, flow] {
      // Defer teardown: we are inside the sender's own ACK processing. The
      // sentinel keeps a pool destroyed before the event fires safe.
      network_.scheduler().schedule_in(
          sim::Duration::zero(),
          [this, flow, alive = std::weak_ptr<int>(alive_)] {
            if (alive.expired()) return;
            finish(flow);
          });
    });
    entry.started_at = network_.scheduler().now();
    entry.sender->start();
    active_.emplace(flow, std::move(entry));
    ++started_;
  }
  arrival_timer_.schedule_in(
      sim::Duration::seconds(rng_.exponential(config_.mean_interarrival_s)),
      [this] { spawn(); });
}

void ShortFlowPool::finish(net::FlowId flow) {
  const auto it = active_.find(flow);
  if (it == active_.end()) return;
  durations_.push_back(
      (network_.scheduler().now() - it->second.started_at).as_seconds());
  ++completed_;
  active_.erase(it);
}

}  // namespace tcppr::harness
