#include "harness/scenarios.hpp"

#include <algorithm>
#include <utility>

#include "tcp/door.hpp"
#include "tcp/eifel.hpp"
#include "tcp/mitigation.hpp"
#include "tcp/reno.hpp"
#include "tcp/sack.hpp"
#include "tcp/tahoe.hpp"
#include "tcp/tdfr.hpp"
#include "util/check.hpp"

namespace tcppr::harness {

const char* to_string(TcpVariant variant) {
  switch (variant) {
    case TcpVariant::kTcpPr:
      return "tcp-pr";
    case TcpVariant::kSack:
      return "sack";
    case TcpVariant::kReno:
      return "reno";
    case TcpVariant::kNewReno:
      return "newreno";
    case TcpVariant::kTahoe:
      return "tahoe";
    case TcpVariant::kTdFr:
      return "td-fr";
    case TcpVariant::kDsackNm:
      return "dsack-nm";
    case TcpVariant::kIncByOne:
      return "inc-by-1";
    case TcpVariant::kIncByN:
      return "inc-by-n";
    case TcpVariant::kEwma:
      return "ewma";
    case TcpVariant::kEifel:
      return "eifel";
    case TcpVariant::kDoor:
      return "tcp-door";
  }
  return "?";
}

const std::vector<TcpVariant>& all_variants() {
  static const std::vector<TcpVariant> kAll = {
      TcpVariant::kTcpPr,    TcpVariant::kSack,   TcpVariant::kReno,
      TcpVariant::kNewReno,  TcpVariant::kTahoe,  TcpVariant::kTdFr,
      TcpVariant::kDsackNm,  TcpVariant::kIncByOne, TcpVariant::kIncByN,
      TcpVariant::kEwma,     TcpVariant::kEifel,  TcpVariant::kDoor};
  return kAll;
}

std::unique_ptr<tcp::SenderBase> make_sender(
    TcpVariant variant, net::Network& network, net::NodeId local,
    net::NodeId remote, net::FlowId flow, const tcp::TcpConfig& tcp_config,
    const core::TcpPrConfig& pr_config) {
  switch (variant) {
    case TcpVariant::kTcpPr:
      return std::make_unique<core::TcpPrSender>(network, local, remote, flow,
                                                 tcp_config, pr_config);
    case TcpVariant::kSack:
      return std::make_unique<tcp::SackSender>(network, local, remote, flow,
                                               tcp_config);
    case TcpVariant::kReno:
      return std::make_unique<tcp::RenoSender>(network, local, remote, flow,
                                               tcp_config);
    case TcpVariant::kNewReno:
      return std::make_unique<tcp::NewRenoSender>(network, local, remote,
                                                  flow, tcp_config);
    case TcpVariant::kTahoe:
      return std::make_unique<tcp::TahoeSender>(network, local, remote, flow,
                                                tcp_config);
    case TcpVariant::kDoor:
      return std::make_unique<tcp::DoorSender>(network, local, remote, flow,
                                               tcp_config);
    case TcpVariant::kTdFr:
      return std::make_unique<tcp::TdFrSender>(network, local, remote, flow,
                                               tcp_config);
    case TcpVariant::kDsackNm:
      return std::make_unique<tcp::MitigationSender>(
          network, local, remote, flow,
          tcp::DupthreshPolicy::kDsackNoMitigation, tcp_config);
    case TcpVariant::kIncByOne:
      return std::make_unique<tcp::MitigationSender>(
          network, local, remote, flow, tcp::DupthreshPolicy::kIncByOne,
          tcp_config);
    case TcpVariant::kIncByN:
      return std::make_unique<tcp::MitigationSender>(
          network, local, remote, flow, tcp::DupthreshPolicy::kIncByN,
          tcp_config);
    case TcpVariant::kEwma:
      return std::make_unique<tcp::MitigationSender>(
          network, local, remote, flow, tcp::DupthreshPolicy::kEwma,
          tcp_config);
    case TcpVariant::kEifel:
      return std::make_unique<tcp::EifelSender>(network, local, remote, flow,
                                                tcp_config);
  }
  TCPPR_CHECK(false);
  return nullptr;
}

void Scenario::schedule_action(sim::TimePoint at, net::NodeId affinity,
                               std::function<void()> fn) {
  const sim::EventId id = sched.schedule_at(at, fn);
  deferred.push_back(DeferredAction{id, at, affinity, std::move(fn)});
}

void Scenario::add_flow(TcpVariant variant, net::NodeId src, net::NodeId dst,
                        net::FlowId flow, const tcp::TcpConfig& tcp_config,
                        const core::TcpPrConfig& pr_config,
                        sim::TimePoint start) {
  tcp::ReceiverConfig rc;
  rc.segment_bytes = tcp_config.segment_bytes;
  rc.ack_bytes = tcp_config.ack_bytes;
  receivers.push_back(
      std::make_unique<tcp::Receiver>(network, dst, src, flow, rc));
  senders.push_back(make_sender(variant, network, src, dst, flow, tcp_config,
                                pr_config));
  variants.push_back(variant);
  tcp::SenderBase* sender = senders.back().get();
  schedule_action(start, src, [sender] { sender->start(); });
}

void Scenario::add_cross_flow(net::NodeId src, net::NodeId dst,
                              net::FlowId flow,
                              const tcp::TcpConfig& tcp_config,
                              sim::TimePoint start) {
  tcp::ReceiverConfig rc;
  rc.segment_bytes = tcp_config.segment_bytes;
  rc.ack_bytes = tcp_config.ack_bytes;
  cross_receivers.push_back(
      std::make_unique<tcp::Receiver>(network, dst, src, flow, rc));
  cross_senders.push_back(std::make_unique<tcp::SackSender>(
      network, src, dst, flow, tcp_config));
  tcp::SenderBase* sender = cross_senders.back().get();
  schedule_action(start, src, [sender] { sender->start(); });
}

void Scenario::attach_observability(obs::MetricRegistry& registry,
                                    sim::Duration queue_interval) {
  for (auto& sender : senders) sender->set_metric_registry(registry);
  for (auto& receiver : receivers) receiver->set_metric_registry(registry);
  for (net::Link* link : bottlenecks) {
    queue_probes.push_back(std::make_unique<obs::QueueProbe>(
        sched, registry, *link, queue_interval));
    queue_probes.back()->start();
  }
}

double Scenario::bottleneck_loss_rate() const {
  std::uint64_t dropped = 0;
  std::uint64_t offered = 0;
  for (const net::Link* link : bottlenecks) {
    dropped += link->queue().stats().dropped;
    offered += link->queue().stats().enqueued + link->queue().stats().dropped;
  }
  if (offered == 0) return 0;
  return static_cast<double>(dropped) / static_cast<double>(offered);
}

std::unique_ptr<Scenario> make_dumbbell(const DumbbellConfig& config) {
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;

  const net::NodeId src = nw.add_node();
  const net::NodeId r1 = nw.add_node();
  const net::NodeId r2 = nw.add_node();
  const net::NodeId dst = nw.add_node();
  s->src_host = src;
  s->dst_host = dst;

  net::LinkConfig access;
  access.bandwidth_bps = config.access_bw_bps;
  access.delay = config.access_delay;
  access.queue_limit_packets = config.access_queue;
  nw.add_duplex_link(src, r1, access);
  nw.add_duplex_link(r2, dst, access);

  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = config.bottleneck_bw_bps;
  bottleneck.delay = config.bottleneck_delay;
  bottleneck.queue_limit_packets = config.bottleneck_queue;
  auto [fwd, rev] = nw.add_duplex_link(r1, r2, bottleneck);
  s->bottlenecks.push_back(fwd);
  (void)rev;

  nw.compute_static_routes();

  sim::Rng rng(config.seed);
  net::FlowId next_flow = 1;
  const double stagger_s = config.max_start_stagger.as_seconds();
  // Interleave PR and SACK flows so start order is variant-neutral.
  int pr_left = config.pr_flows;
  int sack_left = config.sack_flows;
  for (int i = 0; pr_left + sack_left > 0; ++i) {
    TcpVariant variant;
    if (pr_left > 0 && (sack_left == 0 || i % 2 == 0)) {
      variant = TcpVariant::kTcpPr;
      --pr_left;
    } else {
      variant = TcpVariant::kSack;
      --sack_left;
    }
    const auto start =
        sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
    s->add_flow(variant, src, dst, next_flow++, config.tcp, config.pr, start);
  }
  return s;
}

std::unique_ptr<Scenario> make_parking_lot(const ParkingLotConfig& config) {
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;

  const net::NodeId src = nw.add_node();   // S
  const net::NodeId n1 = nw.add_node();
  const net::NodeId n2 = nw.add_node();
  const net::NodeId n3 = nw.add_node();
  const net::NodeId n4 = nw.add_node();
  const net::NodeId dst = nw.add_node();   // D
  const net::NodeId cs1 = nw.add_node();
  const net::NodeId cs2 = nw.add_node();
  const net::NodeId cs3 = nw.add_node();
  const net::NodeId cd1 = nw.add_node();
  const net::NodeId cd2 = nw.add_node();
  const net::NodeId cd3 = nw.add_node();
  s->src_host = src;
  s->dst_host = dst;

  const auto link = [&](double bw, sim::Duration d) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = bw;
    cfg.delay = d;
    cfg.queue_limit_packets = config.queue_limit;
    return cfg;
  };

  nw.add_duplex_link(src, n1, link(config.other_bw_bps, config.access_delay));
  auto [l12, l21] =
      nw.add_duplex_link(n1, n2, link(config.chain_bw_bps, config.chain_delay));
  auto [l23, l32] =
      nw.add_duplex_link(n2, n3, link(config.chain_bw_bps, config.chain_delay));
  auto [l34, l43] =
      nw.add_duplex_link(n3, n4, link(config.chain_bw_bps, config.chain_delay));
  (void)l21;
  (void)l32;
  (void)l43;
  nw.add_duplex_link(n4, dst, link(config.other_bw_bps, config.access_delay));
  s->bottlenecks = {l12, l23, l34};

  // Cross-traffic attachment points per Figure 1: sources enter at nodes
  // 1..3 through rate-limited access links; sinks hang off nodes 2..4.
  nw.add_duplex_link(cs1, n1, link(config.cs1_bw_bps, config.access_delay));
  nw.add_duplex_link(cs2, n2, link(config.cs2_bw_bps, config.access_delay));
  nw.add_duplex_link(cs3, n3, link(config.cs3_bw_bps, config.access_delay));
  nw.add_duplex_link(n2, cd1, link(config.other_bw_bps, config.access_delay));
  nw.add_duplex_link(n3, cd2, link(config.other_bw_bps, config.access_delay));
  nw.add_duplex_link(n4, cd3, link(config.other_bw_bps, config.access_delay));

  nw.compute_static_routes();

  sim::Rng rng(config.seed);
  const double stagger_s = config.max_start_stagger.as_seconds();
  net::FlowId next_flow = 1;

  if (config.with_cross_traffic) {
    const std::pair<net::NodeId, net::NodeId> cross[] = {
        {cs1, cd1}, {cs1, cd2}, {cs1, cd3},
        {cs2, cd2}, {cs2, cd3}, {cs3, cd3}};
    for (const auto& [a, b] : cross) {
      const auto start =
          sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
      s->add_cross_flow(a, b, next_flow++, config.tcp, start);
    }
  }

  int pr_left = config.pr_flows;
  int sack_left = config.sack_flows;
  for (int i = 0; pr_left + sack_left > 0; ++i) {
    TcpVariant variant;
    if (pr_left > 0 && (sack_left == 0 || i % 2 == 0)) {
      variant = TcpVariant::kTcpPr;
      --pr_left;
    } else {
      variant = TcpVariant::kSack;
      --sack_left;
    }
    const auto start =
        sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
    s->add_flow(variant, src, dst, next_flow++, config.tcp, config.pr, start);
  }
  return s;
}

std::unique_ptr<Scenario> make_multipath(const MultipathConfig& config) {
  TCPPR_CHECK(config.path_count >= 1);
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;

  const net::NodeId src = nw.add_node();
  const net::NodeId dst = nw.add_node();
  s->src_host = src;
  s->dst_host = dst;

  net::LinkConfig link;
  link.bandwidth_bps = config.link_bw_bps;
  link.delay = config.link_delay;
  link.queue_limit_packets = config.queue_limit;

  // Path i (1-based) has i relay nodes: i+1 hops, so path RTTs spread by a
  // factor of (path_count+1)/2 — the source of persistent reordering.
  routing::PathSet fwd_paths;
  fwd_paths.src = src;
  fwd_paths.dst = dst;
  routing::PathSet rev_paths;
  rev_paths.src = dst;
  rev_paths.dst = src;
  for (int i = 1; i <= config.path_count; ++i) {
    std::vector<net::NodeId> fwd{src};
    net::NodeId prev = src;
    for (int k = 0; k < i; ++k) {
      const net::NodeId relay = nw.add_node();
      nw.add_duplex_link(prev, relay, link);
      fwd.push_back(relay);
      prev = relay;
    }
    nw.add_duplex_link(prev, dst, link);
    fwd.push_back(dst);
    std::vector<net::NodeId> rev(fwd.rbegin(), fwd.rend());
    const double cost = static_cast<double>(i + 1);  // hops as cost
    fwd_paths.paths.push_back(std::move(fwd));
    fwd_paths.costs.push_back(cost);
    rev_paths.paths.push_back(std::move(rev));
    rev_paths.costs.push_back(cost);
  }

  nw.compute_static_routes();
  for (const auto& l : nw.links()) s->bottlenecks.push_back(l.get());

  sim::Rng rng(config.seed);
  auto fwd_policy = std::make_unique<routing::MultipathSelector>(
      std::move(fwd_paths), config.epsilon, rng.fork(101));
  nw.node(src).set_source_routing_policy(fwd_policy.get());
  s->policies.push_back(std::move(fwd_policy));
  if (config.multipath_acks) {
    auto rev_policy = std::make_unique<routing::MultipathSelector>(
        std::move(rev_paths), config.epsilon, rng.fork(202));
    nw.node(dst).set_source_routing_policy(rev_policy.get());
    s->policies.push_back(std::move(rev_policy));
  }

  s->add_flow(config.variant, src, dst, /*flow=*/1, config.tcp, config.pr,
              sim::TimePoint::origin());
  return s;
}

namespace {

// Deterministic PR/SACK interleaving at `fraction`: flow i is TCP-PR when
// assigning it keeps the running PR share at or below the target, which
// spreads the minority variant evenly instead of front-loading it.
TcpVariant variant_for(int index, double fraction, int& pr_assigned) {
  const double share =
      static_cast<double>(pr_assigned + 1) / static_cast<double>(index + 1);
  if (share <= fraction + 1e-12) {
    ++pr_assigned;
    return TcpVariant::kTcpPr;
  }
  return TcpVariant::kSack;
}

}  // namespace

std::unique_ptr<Scenario> make_many_flows(const ManyFlowsConfig& config) {
  TCPPR_CHECK(config.flows >= 1 &&
              config.flows <= ManyFlowsConfig::kMaxFlows);
  TCPPR_CHECK(config.pr_fraction >= 0 && config.pr_fraction <= 1);
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;
  sim::Rng rng(config.seed);
  const double stagger_s = config.max_start_stagger.as_seconds();
  int pr_assigned = 0;

  if (config.topology == ManyFlowsConfig::Topology::kDumbbell) {
    const net::NodeId src = nw.add_node();
    const net::NodeId r1 = nw.add_node();
    const net::NodeId r2 = nw.add_node();
    const net::NodeId dst = nw.add_node();
    s->src_host = src;
    s->dst_host = dst;

    const double bottleneck_bw =
        config.bottleneck_bw_per_flow_bps * config.flows;

    net::LinkConfig access;
    access.bandwidth_bps = config.access_bw_headroom * bottleneck_bw;
    access.delay = config.access_delay;
    // Access queues must absorb a synchronized window burst from every
    // flow without becoming the experiment's bottleneck.
    access.queue_limit_packets =
        static_cast<std::size_t>(config.flows) * 8 + 2000;
    nw.add_duplex_link(src, r1, access);
    nw.add_duplex_link(r2, dst, access);

    net::LinkConfig bottleneck;
    bottleneck.bandwidth_bps = bottleneck_bw;
    bottleneck.delay = config.bottleneck_delay;
    // Queue ~ one bandwidth-delay product (1 kB segments, RTT dominated by
    // 2 * bottleneck_delay), floored at the figure scenarios' 100.
    const double rtt_s = 2.0 * (config.bottleneck_delay.as_seconds() +
                                config.access_delay.as_seconds());
    const double bdp_packets =
        bottleneck_bw * rtt_s / (8.0 * config.tcp.segment_bytes);
    bottleneck.queue_limit_packets =
        std::max<std::size_t>(100, static_cast<std::size_t>(bdp_packets));
    auto [fwd, rev] = nw.add_duplex_link(r1, r2, bottleneck);
    s->bottlenecks.push_back(fwd);
    (void)rev;

    nw.compute_static_routes();

    for (int i = 0; i < config.flows; ++i) {
      const TcpVariant variant =
          variant_for(i, config.pr_fraction, pr_assigned);
      const auto start =
          sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
      s->add_flow(variant, src, dst, /*flow=*/i + 1, config.tcp, config.pr,
                  start);
    }
    return s;
  }

  // Random graph: a ring with random chords (the fuzzer's shape, scaled
  // up), flows between random distinct node pairs.
  const int n = std::max(4, config.graph_nodes);
  for (int i = 0; i < n; ++i) nw.add_node();

  net::LinkConfig link;
  link.bandwidth_bps = config.graph_bw_bps;
  link.delay = config.graph_delay;
  link.queue_limit_packets = config.graph_queue;
  for (int i = 0; i < n; ++i) {
    auto [fwd, rev] = nw.add_duplex_link(i, (i + 1) % n, link);
    s->bottlenecks.push_back(fwd);
    (void)rev;
  }
  for (int c = 0; c < config.graph_chords; ++c) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(n));
    net::NodeId b = static_cast<net::NodeId>(rng.uniform_int(n));
    // Chords must span at least two ring hops to add a distinct route.
    if (b == a || b == (a + 1) % n || a == (b + 1) % n) {
      b = (a + static_cast<net::NodeId>(n) / 2) % n;
    }
    auto [fwd, rev] = nw.add_duplex_link(a, b, link);
    s->bottlenecks.push_back(fwd);
    (void)rev;
  }
  nw.compute_static_routes();
  s->src_host = 0;
  s->dst_host = n / 2;

  for (int i = 0; i < config.flows; ++i) {
    const net::NodeId src = static_cast<net::NodeId>(rng.uniform_int(n));
    net::NodeId dst = static_cast<net::NodeId>(rng.uniform_int(n));
    if (dst == src) dst = (dst + 1 + static_cast<net::NodeId>(n) / 2) % n;
    const TcpVariant variant =
        variant_for(i, config.pr_fraction, pr_assigned);
    const auto start =
        sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
    s->add_flow(variant, src, dst, /*flow=*/i + 1, config.tcp, config.pr,
                start);
  }
  return s;
}

std::unique_ptr<Scenario> make_fan_dumbbell(const FanDumbbellConfig& config) {
  TCPPR_CHECK(config.flows >= 1 &&
              config.flows <= FanDumbbellConfig::kMaxFlows);
  TCPPR_CHECK(config.fan_width >= 1);
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;
  sim::Rng rng(config.seed);

  const net::NodeId src = nw.add_node();
  const net::NodeId r1 = nw.add_node();
  const net::NodeId r2 = nw.add_node();
  const net::NodeId dst = nw.add_node();
  s->src_host = src;
  s->dst_host = dst;

  const double bottleneck_bw = config.per_flow_bw_bps * config.flows;
  // Each fan link carries ~1/fan_width of the aggregate; headroom keeps
  // the fans out of the bottleneck's business.
  const double fan_bw = config.access_bw_headroom * bottleneck_bw /
                        static_cast<double>(config.fan_width);

  const auto fan_link = [&](sim::Duration delay) {
    net::LinkConfig cfg;
    cfg.bandwidth_bps = fan_bw;
    cfg.delay = delay;
    cfg.queue_limit_packets = config.access_queue_packets;
    return cfg;
  };

  // Relay fans: src == A_i == r1 and r2 == B_i == dst, relay i's host-side
  // hop carrying the i * step delay spread.
  std::vector<net::NodeId> a_relays;
  std::vector<net::NodeId> b_relays;
  for (int i = 0; i < config.fan_width; ++i) {
    const sim::Duration spread = sim::Duration::nanos(
        config.access_delay_base.as_nanos() +
        static_cast<std::int64_t>(i) * config.access_delay_step.as_nanos());
    const net::NodeId a = nw.add_node();
    nw.add_duplex_link(src, a, fan_link(spread));
    nw.add_duplex_link(a, r1, fan_link(config.access_delay_base));
    a_relays.push_back(a);
    const net::NodeId b = nw.add_node();
    nw.add_duplex_link(r2, b, fan_link(config.access_delay_base));
    nw.add_duplex_link(b, dst, fan_link(spread));
    b_relays.push_back(b);
  }

  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = bottleneck_bw;
  bottleneck.delay = config.bottleneck_delay;
  bottleneck.queue_limit_packets = config.bottleneck_queue_packets;
  auto [fwd, rev] = nw.add_duplex_link(r1, r2, bottleneck);
  s->bottlenecks.push_back(fwd);
  (void)rev;

  nw.compute_static_routes();

  // Per-packet ECMP across the fans, both directions: data sprays over the
  // A relays at src and the B relays at r2; ACKs over the B relays at dst
  // and the A relays at r1. With the delay spread above this is the
  // persistent-reordering plant — consecutive segments race each other by
  // up to 2 * (fan_width - 1) * access_delay_step per direction.
  nw.node(src).set_ecmp_next_hops(dst, a_relays, rng.fork(11));
  nw.node(r2).set_ecmp_next_hops(dst, b_relays, rng.fork(12));
  nw.node(dst).set_ecmp_next_hops(src, b_relays, rng.fork(13));
  nw.node(r1).set_ecmp_next_hops(src, a_relays, rng.fork(14));
  return s;
}

FanDumbbellConfig million_fan_config(int flows) {
  FanDumbbellConfig fc;
  fc.flows = flows;
  fc.fan_width = 8;
  // Event-rate floor is flows / RTT (cwnd cannot go below 1 segment), so
  // the top-end row buys wall-clock with a long pipe: ~0.9-1.0 s RTT
  // means ~1.2 M deliveries per simulated second at 2^20 flows instead of
  // the ~50 M a datacenter RTT would force.
  fc.bottleneck_delay = sim::Duration::millis(300);
  fc.access_delay_base = sim::Duration::millis(2);
  fc.access_delay_step = sim::Duration::millis(25);
  // ~1.4 segments per RTT per flow: enough for progress at cwnd 1-2,
  // little enough that the aggregate stays at the floor.
  fc.per_flow_bw_bps = 12e3;
  fc.bottleneck_queue_packets = 1 << 16;  // far under one BDP: underbuffered
  fc.access_queue_packets = 1 << 14;
  return fc;
}

std::unique_ptr<Scenario> make_clustered_mesh(
    const ClusteredMeshConfig& config) {
  TCPPR_CHECK(config.clusters >= 2);
  TCPPR_CHECK(config.flows >= config.clusters &&
              config.flows <= ClusteredMeshConfig::kMaxFlows);
  TCPPR_CHECK(config.cut_delay > config.min_cut_lookahead());
  TCPPR_CHECK(config.access_delay <= config.min_cut_lookahead());
  auto s = std::make_unique<Scenario>();
  net::Network& nw = s->network;
  const int k = config.clusters;
  const int local_flows = config.flows / k;

  struct Cluster {
    net::NodeId src, r1, r2, dst;
  };
  std::vector<Cluster> cl(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    cl[c].src = nw.add_node();
    cl[c].r1 = nw.add_node();
    cl[c].r2 = nw.add_node();
    cl[c].dst = nw.add_node();

    const double local_bw = config.bw_per_flow_bps * local_flows;

    net::LinkConfig access;
    access.bandwidth_bps = config.access_bw_headroom * local_bw;
    access.delay = config.access_delay;
    access.queue_limit_packets =
        static_cast<std::size_t>(local_flows) * 8 + 500;
    nw.add_duplex_link(cl[c].src, cl[c].r1, access);
    nw.add_duplex_link(cl[c].r2, cl[c].dst, access);

    net::LinkConfig local;
    local.bandwidth_bps = local_bw;
    local.delay = config.local_delay;
    // Sub-millisecond RTTs make the queue the whole pipe; a fixed small
    // queue keeps the local loops in the usual congestion regime.
    local.queue_limit_packets = 100;
    auto [fwd, rev] = nw.add_duplex_link(cl[c].r1, cl[c].r2, local);
    s->bottlenecks.push_back(fwd);
    (void)rev;
  }
  // Ring of cut links between neighboring clusters' routers.
  net::LinkConfig cut;
  cut.bandwidth_bps = config.cut_bw_bps;
  cut.delay = config.cut_delay;
  cut.queue_limit_packets = 200;
  for (int c = 0; c < k; ++c) {
    nw.add_duplex_link(cl[c].r2, cl[(c + 1) % k].r1, cut);
  }
  nw.compute_static_routes();
  s->src_host = cl[0].src;
  s->dst_host = cl[0].dst;

  sim::Rng rng(config.seed);
  const double stagger_s = config.max_start_stagger.as_seconds();
  net::FlowId next_flow = 1;
  // Local flows cluster-by-cluster, PR/SACK interleaved within each.
  for (int c = 0; c < k; ++c) {
    int pr_assigned = 0;
    for (int i = 0; i < local_flows; ++i) {
      const TcpVariant variant =
          variant_for(i, config.pr_fraction, pr_assigned);
      const auto start =
          sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
      s->add_flow(variant, cl[c].src, cl[c].dst, next_flow++, config.tcp,
                  config.pr, start);
    }
  }
  for (int x = 0; x < config.cross_flows; ++x) {
    const int c = x % k;
    const auto start =
        sim::TimePoint::from_seconds(rng.uniform(0.0, stagger_s));
    s->add_cross_flow(cl[c].src, cl[(c + 1) % k].dst, 100000 + next_flow++,
                      config.tcp, start);
  }
  return s;
}

}  // namespace tcppr::harness
