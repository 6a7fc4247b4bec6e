// Telemetry: attaches a ReorderTap to every link of a network and owns
// the taps for the run.
//
// Construction walks Network::links() and installs one tap per link
// through net::Link::set_telemetry_tap — the same one-branch-when-off
// discipline as trace::Tracer, so an untapped run pays a single
// well-predicted null test per delivery and a tapped run pays the sketch
// update. Taps observe the delivery stream only; they never touch packets
// or scheduling, so delivery hashes are byte-identical with telemetry on
// or off, at any LP count.
//
// The hub is also the departure fan-out: the workload layer reports each
// torn-down flow once per side through retire_flow, which folds the flow
// out of every tap's slot table (and exact baseline) exactly once.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/reorder_tap.hpp"

namespace tcppr::net {
class Link;
class Network;
}  // namespace tcppr::net

namespace tcppr::obs {
class MetricRegistry;
}

namespace tcppr::telemetry {

struct TelemetryConfig {
  TapConfig tap;
};

class Telemetry {
 public:
  // Attach after the topology is built (links constructed); links added
  // later are not tapped. Destroy before the network — the destructor
  // detaches every tap.
  explicit Telemetry(net::Network& network,
                     TelemetryConfig config = TelemetryConfig());
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  std::size_t tap_count() const { return taps_.size(); }
  ReorderTap& tap(std::size_t i) { return taps_[i]; }
  const ReorderTap& tap(std::size_t i) const { return taps_[i]; }
  const net::Link& link(std::size_t i) const { return *links_[i]; }

  // Departure fan-out (see ReorderTap::retire_flow). Sequential runs
  // only: taps belong to shard threads in parallel mode, where departed
  // flows are instead displaced by tenure pressure.
  void retire_flow(net::FlowId flow);
  std::uint64_t retire_calls() const { return retire_calls_; }

  // Sum of every tap's totals (max_displacement merges as a maximum).
  ReorderTap::Totals aggregate() const;
  // Fixed per-tap sketch footprint (identical across taps).
  std::size_t sketch_bytes_per_tap() const;

  // Publishes the aggregate as obs gauges (telemetry.* metric names).
  void publish(obs::MetricRegistry& registry, sim::TimePoint t) const;
  // Human-readable summary: aggregate line, busiest links, heavy
  // reorderers (tcppr_sim --telemetry).
  void print_summary(std::FILE* out) const;

  // Self-test corruption: inflates one tap's folded counters (see
  // ReorderTap::corrupt_sketch_for_test).
  void corrupt_sketch_for_test();

 private:
  net::Network& network_;
  std::deque<ReorderTap> taps_;  // deque: stable addresses for the links
  std::vector<net::Link*> links_;
  std::uint64_t retire_calls_ = 0;
};

}  // namespace tcppr::telemetry
