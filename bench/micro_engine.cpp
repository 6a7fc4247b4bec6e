// Micro-benchmarks (google-benchmark): the cost centers that Remark 1 of
// the paper discusses — the Newton iteration for alpha^(1/cwnd) — plus the
// event engine and an end-to-end simulation-throughput measurement.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <memory>

#include "core/tcp_pr.hpp"
#include "harness/experiment.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace tcppr;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sched.schedule_at(sim::TimePoint::from_seconds(i * 1e-6), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.processed_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(100000);

void BM_SchedulerCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(
          sched.schedule_at(sim::TimePoint::from_seconds(i * 1e-6), [] {}));
    }
    for (const auto id : ids) sched.cancel(id);
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerCancel);

// Timer churn against a live population: randomized cancel + reschedule,
// the access pattern TCP RTO restarts generate. Unlike
// BM_SchedulerScheduleRun the pushes are not monotone, so the heap runs in
// full heap mode rather than the sorted-append fast path.
void BM_SchedulerChurn(benchmark::State& state) {
  constexpr int kLive = 4096;
  constexpr int kChurn = 100000;
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::Rng rng(1234);
    std::vector<sim::EventId> live;
    live.reserve(kLive);
    for (int i = 0; i < kLive; ++i) {
      live.push_back(sched.schedule_at(
          sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0)), [] {}));
    }
    for (int i = 0; i < kChurn; ++i) {
      const auto slot = rng.uniform_int(kLive);
      sched.cancel(live[slot]);
      live[slot] = sched.schedule_at(
          sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0)), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.processed_count());
  }
  state.SetItemsProcessed(state.iterations() * kChurn);
}
BENCHMARK(BM_SchedulerChurn);

// Steady-state forwarding: a burst of packets crossing a three-hop chain
// with no transport on top. Exercises the per-hop path in isolation —
// queue discipline, link serialization, packet-pool recycling, inline
// header storage.
void BM_PacketForwardLoop(benchmark::State& state) {
  struct Sink : net::Agent {
    std::uint64_t received = 0;
    void deliver(net::Packet&&) override { ++received; }
  };
  constexpr int kPackets = 10000;
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network net(sched);
    const net::NodeId a = net.add_node();
    const net::NodeId b = net.add_node();
    const net::NodeId c = net.add_node();
    const net::NodeId d = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 1e9;
    cfg.delay = sim::Duration::micros(10);
    cfg.queue_limit_packets = kPackets + 1;
    net.add_link(a, b, cfg);
    net.add_link(b, c, cfg);
    net.add_link(c, d, cfg);
    net.compute_static_routes();
    Sink sink;
    net.node(d).attach_agent(/*flow=*/1, &sink);
    for (int i = 0; i < kPackets; ++i) {
      net::Packet pkt;
      pkt.src = a;
      pkt.dst = d;
      pkt.size_bytes = 1000;
      pkt.type = net::PacketType::kTcpData;
      pkt.tcp.flow = 1;
      pkt.tcp.seq = i;
      net.node(a).originate(std::move(pkt));
    }
    sched.run();
    benchmark::DoNotOptimize(sink.received);
  }
  state.SetItemsProcessed(state.iterations() * kPackets * 3);
}
BENCHMARK(BM_PacketForwardLoop)->Unit(benchmark::kMillisecond);

// The same three-hop forwarding burst with the batched hot path toggled:
// Arg 0 = unbatched (per-packet scheduler events), 1 = batched (link-pump
// carrier events, batched queue ops). The events_per_packet counter is the
// headline metric — one carrier event executes every transmission and
// delivery op that comes due before the next pending scheduler event, so
// the batched row drops well below one scheduler event per delivered
// packet while the unbatched row pays several.
void BM_BatchDelivery(benchmark::State& state) {
  struct Sink : net::Agent {
    std::uint64_t received = 0;
    void deliver(net::Packet&&) override { ++received; }
  };
  const bool batching = state.range(0) != 0;
  constexpr int kPackets = 10000;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    // The mode is sampled once at Network construction; restore the
    // process default immediately so nothing else inherits it.
    net::set_hot_path_batching(batching);
    sim::Scheduler sched;
    net::Network net(sched);
    net::set_hot_path_batching(true);
    const net::NodeId a = net.add_node();
    const net::NodeId b = net.add_node();
    const net::NodeId c = net.add_node();
    const net::NodeId d = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 1e9;
    cfg.delay = sim::Duration::micros(10);
    cfg.queue_limit_packets = kPackets + 1;
    net.add_link(a, b, cfg);
    net.add_link(b, c, cfg);
    net.add_link(c, d, cfg);
    net.compute_static_routes();
    Sink sink;
    net.node(d).attach_agent(/*flow=*/1, &sink);
    for (int i = 0; i < kPackets; ++i) {
      net::Packet pkt;
      pkt.src = a;
      pkt.dst = d;
      pkt.size_bytes = 1000;
      pkt.type = net::PacketType::kTcpData;
      pkt.tcp.flow = 1;
      pkt.tcp.seq = i;
      net.node(a).originate(std::move(pkt));
    }
    sched.run();
    events = sched.processed_count();
    delivered = sink.received;
    benchmark::DoNotOptimize(sink.received);
  }
  state.SetItemsProcessed(state.iterations() * kPackets * 3);
  state.counters["events_per_packet"] =
      delivered ? static_cast<double>(events) / static_cast<double>(delivered)
                : 0.0;
}
BENCHMARK(BM_BatchDelivery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The forwarding burst of BM_PacketForwardLoop with reordering telemetry:
// Arg 0 = taps compiled in but not attached (the one-branch-when-off cost
// every deployment pays), 1 = a ReorderTap attached to every link (the
// in-order sketch update per delivery). Paired with BM_PacketForwardLoop
// by tools/bench_check.py: /0 must track the untapped loop and /1 must
// stay within a small constant factor of /0.
void BM_TelemetryTap(benchmark::State& state) {
  struct Sink : net::Agent {
    std::uint64_t received = 0;
    void deliver(net::Packet&&) override { ++received; }
  };
  const bool tapped = state.range(0) != 0;
  constexpr int kPackets = 10000;
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network net(sched);
    const net::NodeId a = net.add_node();
    const net::NodeId b = net.add_node();
    const net::NodeId c = net.add_node();
    const net::NodeId d = net.add_node();
    net::LinkConfig cfg;
    cfg.bandwidth_bps = 1e9;
    cfg.delay = sim::Duration::micros(10);
    cfg.queue_limit_packets = kPackets + 1;
    net.add_link(a, b, cfg);
    net.add_link(b, c, cfg);
    net.add_link(c, d, cfg);
    net.compute_static_routes();
    std::unique_ptr<telemetry::Telemetry> taps;
    if (tapped) {
      taps = std::make_unique<telemetry::Telemetry>(net,
                                                    telemetry::TelemetryConfig{});
    }
    Sink sink;
    net.node(d).attach_agent(/*flow=*/1, &sink);
    for (int i = 0; i < kPackets; ++i) {
      net::Packet pkt;
      pkt.src = a;
      pkt.dst = d;
      pkt.size_bytes = 1000;
      pkt.type = net::PacketType::kTcpData;
      pkt.tcp.flow = 1;
      pkt.tcp.seq = i;
      net.node(a).originate(std::move(pkt));
    }
    sched.run();
    if (taps != nullptr) {
      benchmark::DoNotOptimize(taps->aggregate().data_packets);
    }
    benchmark::DoNotOptimize(sink.received);
  }
  state.SetItemsProcessed(state.iterations() * kPackets * 3);
}
BENCHMARK(BM_TelemetryTap)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(1);
  double acc = 0;
  for (auto _ : state) {
    acc += rng.uniform();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

// Remark 1: the per-ACK cost TCP-PR adds over Reno is the two-iteration
// Newton solve. Compare it against libm's pow.
void BM_NewtonAlphaRoot(benchmark::State& state) {
  double cwnd = 1.0;
  double acc = 0;
  for (auto _ : state) {
    cwnd = cwnd >= 1000 ? 1.0 : cwnd + 1.37;
    acc += core::TcpPrSender::newton_alpha_root(0.995, cwnd, 2);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_NewtonAlphaRoot);

void BM_ExactPow(benchmark::State& state) {
  double cwnd = 1.0;
  double acc = 0;
  for (auto _ : state) {
    cwnd = cwnd >= 1000 ? 1.0 : cwnd + 1.37;
    acc += std::pow(0.995, 1.0 / cwnd);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ExactPow);

// End-to-end: simulated seconds per wall second for a loaded dumbbell.
void BM_DumbbellSimulation(benchmark::State& state) {
  for (auto _ : state) {
    harness::DumbbellConfig config;
    config.pr_flows = static_cast<int>(state.range(0)) / 2;
    config.sack_flows = static_cast<int>(state.range(0)) / 2;
    auto scenario = harness::make_dumbbell(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(10));
    benchmark::DoNotOptimize(scenario->sched.processed_count());
  }
}
BENCHMARK(BM_DumbbellSimulation)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

// TCP-PR vs SACK sender processing cost on the same workload. On the
// epsilon-0 mesh TCP-PR moves about 40x more data than SACK in the same
// simulated window, so the row times are not comparable; the counters are:
// wall ns of the run per packet delivered to an agent (ns_per_pkt) and per
// ACK the measured sender processed (ns_per_ack).
void BM_MultipathSenderCost(benchmark::State& state) {
  const auto variant = state.range(0) == 0 ? harness::TcpVariant::kTcpPr
                                           : harness::TcpVariant::kSack;
  double run_ns = 0;
  double pkts = 0;
  double acks = 0;
  for (auto _ : state) {
    harness::MultipathConfig config;
    config.variant = variant;
    config.epsilon = 0;
    auto scenario = harness::make_multipath(config);
    const auto start = std::chrono::steady_clock::now();
    scenario->sched.run_until(sim::TimePoint::from_seconds(5));
    run_ns += std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    pkts += static_cast<double>(
        scenario->network.conservation().delivered_to_agent);
    acks += static_cast<double>(scenario->senders[0]->stats().acks_received);
    benchmark::DoNotOptimize(scenario->sched.processed_count());
  }
  state.counters["ns_per_pkt"] = pkts > 0 ? run_ns / pkts : 0;
  state.counters["ns_per_ack"] = acks > 0 ? run_ns / acks : 0;
}
BENCHMARK(BM_MultipathSenderCost)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
