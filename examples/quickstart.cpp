// Quickstart: the smallest complete use of the library.
//
// Builds a three-node path (source - router - destination), attaches a
// TCP-PR sender and a standard TCP receiver, transfers 2 MB, and prints
// what happened. Start here to see the public API end to end.
//
//   ./quickstart
#include <cstdio>

#include "core/tcp_pr.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "tcp/receiver.hpp"

int main() {
  using namespace tcppr;

  // 1. An event scheduler drives everything.
  sim::Scheduler sched;

  // 2. Build the topology: src --1Gbps-- router --10Mbps/20ms-- dst.
  net::Network network(sched);
  const net::NodeId src = network.add_node();
  const net::NodeId router = network.add_node();
  const net::NodeId dst = network.add_node();

  net::LinkConfig access;
  access.bandwidth_bps = 1e9;
  access.delay = sim::Duration::millis(1);
  network.add_duplex_link(src, router, access);

  net::LinkConfig bottleneck;
  bottleneck.bandwidth_bps = 10e6;
  bottleneck.delay = sim::Duration::millis(20);
  bottleneck.queue_limit_packets = 100;
  network.add_duplex_link(router, dst, bottleneck);
  network.compute_static_routes();

  // 3. A receiver at dst and a TCP-PR sender at src, flow id 1.
  const net::FlowId flow = 1;
  tcp::Receiver receiver(network, dst, src, flow);

  tcp::TcpConfig tcp_config;          // 1000-byte segments by default
  core::TcpPrConfig pr_config;        // alpha = 0.995, beta = 3 (the paper's)
  core::TcpPrSender sender(network, src, dst, flow, tcp_config, pr_config);

  // 4. Transfer 2000 segments (2 MB) and stop when fully acknowledged.
  sender.set_transfer_segments(2000);
  sender.set_completion_callback([&] {
    std::printf("transfer complete at t=%.3f s\n",
                sched.now().as_seconds());
    sched.stop();
  });

  // Watch the congestion window evolve (sampled every half second).
  sender.set_cwnd_listener([&, last = -1.0](sim::TimePoint t,
                                            double cwnd) mutable {
    if (t.as_seconds() - last >= 0.5) {
      last = t.as_seconds();
      std::printf("  t=%6.2f s  cwnd=%7.2f  mode=%s  mxrtt=%.0f ms\n",
                  t.as_seconds(), cwnd,
                  sender.mode() == core::TcpPrSender::Mode::kSlowStart
                      ? "slow-start"
                      : "cong-avoid",
                  sender.mxrtt().as_seconds() * 1e3);
    }
  });

  sender.start();
  sched.run();

  // 5. Inspect the statistics both endpoints kept.
  const auto& s = sender.stats();
  const auto& r = receiver.stats();
  std::printf("\nsender:   %llu data packets, %llu retransmissions, "
              "%llu window halvings\n",
              static_cast<unsigned long long>(s.data_packets_sent),
              static_cast<unsigned long long>(s.retransmissions),
              static_cast<unsigned long long>(s.cwnd_halvings));
  std::printf("receiver: %llu packets, %llu duplicates, %llu out-of-order, "
              "%.2f MB in order\n",
              static_cast<unsigned long long>(r.data_packets_received),
              static_cast<unsigned long long>(r.duplicates),
              static_cast<unsigned long long>(r.out_of_order),
              static_cast<double>(r.goodput_bytes) / 1e6);
  std::printf("goodput:  %.2f Mbps\n",
              static_cast<double>(r.goodput_bytes) * 8.0 /
                  sched.now().as_seconds() / 1e6);
  return 0;
}
