// Shared fixtures: a two-host network with one router hop, a TCP flow of a
// chosen variant, and helpers to run the simulation for a while.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "core/tcp_pr.hpp"
#include "harness/scenarios.hpp"
#include "net/network.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "tcp/receiver.hpp"
#include "tcp/sender_base.hpp"
#include "validate/fuzzer.hpp"

namespace tcppr::testutil {

// The three paper topologies with one variant under test, as the parallel
// equivalence matrix and the golden trajectory table build them: the
// dumbbell carries two flows of the variant plus one SACK competitor, the
// parking lot one flow against its SACK cross traffic, and the multipath
// mesh one flow at epsilon 1.
enum class PaperTopo { kDumbbell, kParkingLot, kMultipath };

inline const char* to_string(PaperTopo topo) {
  switch (topo) {
    case PaperTopo::kDumbbell:
      return "dumbbell";
    case PaperTopo::kParkingLot:
      return "parking_lot";
    case PaperTopo::kMultipath:
      return "multipath";
  }
  return "?";
}

inline std::unique_ptr<harness::Scenario> build_paper_topo(
    PaperTopo topo, harness::TcpVariant variant) {
  switch (topo) {
    case PaperTopo::kDumbbell: {
      harness::DumbbellConfig cfg;
      cfg.pr_flows = 0;
      cfg.sack_flows = 0;
      auto s = harness::make_dumbbell(cfg);
      s->add_flow(variant, s->src_host, s->dst_host, 1, cfg.tcp, cfg.pr,
                  sim::TimePoint::origin());
      s->add_flow(variant, s->src_host, s->dst_host, 2, cfg.tcp, cfg.pr,
                  sim::TimePoint::from_seconds(0.2));
      s->add_flow(harness::TcpVariant::kSack, s->src_host, s->dst_host, 3,
                  cfg.tcp, cfg.pr, sim::TimePoint::from_seconds(0.4));
      return s;
    }
    case PaperTopo::kParkingLot: {
      harness::ParkingLotConfig cfg;
      cfg.pr_flows = 0;
      cfg.sack_flows = 0;
      cfg.with_cross_traffic = true;
      auto s = harness::make_parking_lot(cfg);
      s->add_flow(variant, s->src_host, s->dst_host, 50, cfg.tcp, cfg.pr,
                  sim::TimePoint::origin());
      return s;
    }
    case PaperTopo::kMultipath: {
      harness::MultipathConfig cfg;
      cfg.variant = variant;
      cfg.epsilon = 1;
      return harness::make_multipath(cfg);
    }
  }
  return nullptr;
}

// The fuzz case for `seed` with the churn dimension forced on, leaving the
// rest of the sampled case alone: seeds whose draw left churn off get a
// deterministic kind/rate derived from the seed itself. Capped at 4 s.
inline validate::FuzzCase churning_fuzz_case(std::uint64_t seed) {
  validate::FuzzCase c = validate::sample_fuzz_case(seed);
  if (c.churn_rate <= 0) {
    c.churn_rate = 200.0 + 50.0 * static_cast<double>(seed % 8);
    c.churn_kind = static_cast<int>(seed % 3);
  }
  c.duration_s = std::min(c.duration_s, 4.0);
  return c;
}

// Offers a copy of `pkt` to a standalone queue the way a link does: the
// packet is written into a pool slot and the queue is handed the handle.
// The pool lives as long as the test process, so it outlives every queue.
inline bool admit_copy(net::Queue& q, const net::Packet& pkt) {
  static net::PacketPool pool;
  net::PooledPacket handle = pool.make(pkt);
  return q.admit(handle);
}

// src --(access)-- router --(bottleneck)-- dst, all owned together.
struct PathFixture {
  explicit PathFixture(double bottleneck_bps = 10e6,
                       sim::Duration delay = sim::Duration::millis(10),
                       std::size_t queue_limit = 100) {
    network = std::make_unique<net::Network>(sched);
    src = network->add_node();
    router = network->add_node();
    dst = network->add_node();
    net::LinkConfig access;
    access.bandwidth_bps = 1e9;
    access.delay = sim::Duration::millis(1);
    access.queue_limit_packets = 10000;
    network->add_duplex_link(src, router, access);
    net::LinkConfig bn;
    bn.bandwidth_bps = bottleneck_bps;
    bn.delay = delay;
    bn.queue_limit_packets = queue_limit;
    auto [fwd_link, rev_link] = network->add_duplex_link(router, dst, bn);
    fwd = fwd_link;
    rev = rev_link;
    network->compute_static_routes();
  }

  // Creates receiver + sender for the variant; sender not yet started.
  tcp::SenderBase* add_flow(harness::TcpVariant variant, net::FlowId flow,
                            tcp::TcpConfig tcp_config = {},
                            core::TcpPrConfig pr_config = {}) {
    tcp::ReceiverConfig rc;
    rc.segment_bytes = tcp_config.segment_bytes;
    receivers.push_back(std::make_unique<tcp::Receiver>(*network, dst, src,
                                                        flow, rc));
    senders.push_back(harness::make_sender(variant, *network, src, dst, flow,
                                           tcp_config, pr_config));
    return senders.back().get();
  }

  tcp::Receiver* receiver(std::size_t i = 0) { return receivers[i].get(); }

  void run_for(double seconds) {
    sched.run_until(sched.now() + sim::Duration::seconds(seconds));
  }

  sim::Scheduler sched;
  std::unique_ptr<net::Network> network;
  net::NodeId src{}, router{}, dst{};
  net::Link* fwd = nullptr;  // router -> dst (bottleneck, data direction)
  net::Link* rev = nullptr;  // dst -> router (ACK direction)
  std::vector<std::unique_ptr<tcp::Receiver>> receivers;
  std::vector<std::unique_ptr<tcp::SenderBase>> senders;
};

}  // namespace tcppr::testutil
