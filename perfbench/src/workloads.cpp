#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "harness/parallel_run.hpp"
#include "harness/scenarios.hpp"
#include "host_speed.hpp"
#include "layer_clock.hpp"
#include "net/link_pump.hpp"
#include "sim/scheduler.hpp"
#include "validate/determinism.hpp"
#include "workload/workload.hpp"

namespace perfbench {

using namespace tcppr;

const std::vector<WorkloadSpec>& all_workloads() {
  // Why each workload is here: see README.md. Each run warms up untimed
  // (flow starts, slow start, slot tables filling), then times 8 equal
  // windows that end at the workload's fixed simulated duration.
  static const std::vector<WorkloadSpec> specs = {
      {"dumbbell-4096", 2.0, 1.0, 8, 0},
      {"multipath-pr", 50.0, 18.75, 8, 0},
      {"churn-10k", 1.0, 1.125, 8, 0},
      {"dumbbell-4096-par2", 2.0, 1.0, 8, 2},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::unique_ptr<harness::Scenario> build_scenario(const WorkloadSpec& spec,
                                                  std::uint64_t seed) {
  if (spec.name == "multipath-pr") {
    // The fig-6 mesh's long cell: 4 disjoint paths of 2..5 hops, 60 ms
    // links, one TCP-PR flow, uniform per-packet path choice (epsilon 0).
    harness::MultipathConfig c;
    c.variant = harness::TcpVariant::kTcpPr;
    c.epsilon = 0;
    c.link_delay = sim::Duration::millis(60);
    c.seed = seed;
    return harness::make_multipath(c);
  }
  if (spec.name == "churn-10k") {
    // BM_ScaleFlowsChurn's plant at 10k arrivals/s: bandwidth scales with
    // the arrival rate so per-flow share is constant.
    harness::DumbbellConfig c;
    c.pr_flows = 0;
    c.sack_flows = 0;
    c.bottleneck_bw_bps = 40e6 * 10;
    c.access_bw_bps = 4 * c.bottleneck_bw_bps;
    c.bottleneck_queue = 500;
    c.access_queue = 1000;
    c.seed = seed;
    return harness::make_dumbbell(c);
  }
  // dumbbell-4096 and its two-LP twin: the same plant and seed.
  harness::ManyFlowsConfig c;
  c.flows = 4096;
  c.seed = seed;
  return harness::make_many_flows(c);
}

workload::WorkloadConfig churn_config(std::uint64_t seed) {
  workload::WorkloadConfig wc;
  wc.kind = workload::WorkloadKind::kPoisson;
  wc.arrival_rate = 10000;
  wc.min_segments = 2;
  wc.max_segments = 4;  // mice: offered load stays under the bottleneck
  wc.quarantine = sim::Duration::millis(300);
  wc.reap_idle = sim::Duration::millis(150);
  wc.reap_sweep = sim::Duration::millis(50);
  wc.max_concurrent = 8192;
  wc.id_slots = 1 << 15;
  wc.seed = seed;
  return wc;
}

// Cumulative counters, read between events; a window's counts are the
// difference of two readings.
struct Counters {
  std::uint64_t delivered = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t events = 0;
  std::uint64_t pump_ops = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t core_rtx = 0;
  std::uint64_t core_timeouts = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t reaped = 0;
  std::uint64_t cross_lp = 0;
  std::uint64_t windows = 0;

  Counters operator-(const Counters& o) const {
    Counters d;
    d.delivered = delivered - o.delivered;
    d.queue_dropped = queue_dropped - o.queue_dropped;
    d.events = events - o.events;
    d.pump_ops = pump_ops - o.pump_ops;
    d.forwarded = forwarded - o.forwarded;
    d.core_rtx = core_rtx - o.core_rtx;
    d.core_timeouts = core_timeouts - o.core_timeouts;
    d.out_of_order = out_of_order - o.out_of_order;
    d.arrivals = arrivals - o.arrivals;
    d.completed = completed - o.completed;
    d.rejected = rejected - o.rejected;
    d.reaped = reaped - o.reaped;
    d.cross_lp = cross_lp - o.cross_lp;
    d.windows = windows - o.windows;
    return d;
  }
};

// Everything one run owns. Member order is destruction order reversed:
// the engine goes before the ParallelSim, both before the scenario (they
// borrow it), and the proxies and the hasher outlive the scenario whose
// nodes and tracer point at them.
struct Plant {
  validate::DeliveryHasher hasher;
  std::vector<std::unique_ptr<AgentProxy>> agents;
  std::vector<std::unique_ptr<RoutingProxy>> routes;
  std::unique_ptr<harness::Scenario> scenario;
  std::unique_ptr<harness::ParallelSim> psim;
  std::unique_ptr<workload::WorkloadEngine> engine;

  void run_until(sim::TimePoint t) {
    if (psim) {
      psim->run_until(t);
    } else {
      scenario->sched.run_until(t);
    }
  }

  std::vector<sim::Scheduler*> schedulers() {
    std::vector<sim::Scheduler*> out;
    if (psim) {
      for (const auto& s : scenario->lp_scheds) out.push_back(s.get());
    } else {
      out.push_back(&scenario->sched);
    }
    return out;
  }

  Counters counters() const {
    const harness::Scenario& s = *scenario;
    const net::Network::ConservationSnapshot cons = s.network.conservation();
    Counters c;
    c.delivered = cons.delivered_to_agent;
    c.queue_dropped = cons.queue_dropped;
    if (psim) {
      c.events = psim->events_processed();
      c.pump_ops = psim->pump_stats().ops;
      for (const auto& r : psim->lp_reports()) c.cross_lp += r.cross_pushed;
      c.windows = psim->windows();
    } else {
      c.events = s.sched.processed_count();
      const net::LinkPump* pump = s.network.pump();
      c.pump_ops = pump != nullptr ? pump->stats().ops : 0;
    }
    for (int i = 0; i < s.network.node_count(); ++i) {
      c.forwarded += s.network.node(static_cast<net::NodeId>(i)).stats().forwarded;
    }
    for (std::size_t i = 0; i < s.senders.size(); ++i) {
      if (s.variants[i] != harness::TcpVariant::kTcpPr) continue;
      c.core_rtx += s.senders[i]->stats().retransmissions;
      c.core_timeouts += s.senders[i]->stats().timeouts;
    }
    for (const auto* rx : {&s.receivers, &s.cross_receivers}) {
      for (const auto& r : *rx) c.out_of_order += r->stats().out_of_order;
    }
    if (engine) {
      const workload::WorkloadStats ws = engine->stats();
      c.arrivals = ws.arrivals;
      c.completed = ws.completed;
      c.rejected = ws.rejected;
      c.reaped = ws.receivers_reaped;
    }
    return c;
  }

  void wrap_agent(net::NodeId node, net::FlowId flow, net::Agent& agent,
                  Layer layer) {
    agents.push_back(std::make_unique<AgentProxy>(agent, layer));
    net::Node& n = scenario->network.node(node);
    n.detach_agent(flow);
    n.attach_agent(flow, agents.back().get());
  }

  // Re-attaches every endpoint and routing policy through a timing proxy.
  void attach_proxies() {
    harness::Scenario& s = *scenario;
    for (std::size_t i = 0; i < s.senders.size(); ++i) {
      tcp::SenderBase& snd = *s.senders[i];
      wrap_agent(snd.local_node(), snd.flow(), snd,
                 s.variants[i] == harness::TcpVariant::kTcpPr ? Layer::kCore
                                                              : Layer::kSack);
    }
    for (const auto& snd : s.cross_senders) {
      wrap_agent(snd->local_node(), snd->flow(), *snd, Layer::kSack);
    }
    for (const auto* rx : {&s.receivers, &s.cross_receivers}) {
      for (const auto& r : *rx) {
        wrap_agent(r->local_node(), r->flow(), *r, Layer::kReceiver);
      }
    }
    // make_multipath installs policies[0] on the source host and, with
    // multipath ACKs, policies[1] on the destination host.
    const net::NodeId hosts[] = {s.src_host, s.dst_host};
    for (std::size_t i = 0; i < s.policies.size() && i < 2; ++i) {
      routes.push_back(std::make_unique<RoutingProxy>(*s.policies[i]));
      s.network.node(hosts[i]).set_source_routing_policy(routes.back().get());
    }
    if (engine) {
      net::Node& dst = s.network.node(s.dst_host);
      agents.push_back(std::make_unique<AgentProxy>(*dst.default_agent(),
                                                    Layer::kFlowServer));
      dst.set_default_agent(agents.back().get());
    }
  }

  std::vector<Tally> layer_tallies() const {
    std::vector<Tally> out(static_cast<std::size_t>(Layer::kCount));
    const auto add = [&](Layer layer, const Tally& t) {
      Tally& sum = out[static_cast<std::size_t>(layer)];
      sum.calls += t.calls;
      sum.total_ns += t.total_ns;
      sum.child_ns += t.child_ns;
    };
    for (const auto& a : agents) add(a->layer(), a->tally());
    for (const auto& r : routes) add(Layer::kRouting, r->tally());
    return out;
  }
};

// Config to the first event: the scenario builder, ParallelSim
// construction, WorkloadEngine construction and start.
void set_up(Plant& p, const WorkloadSpec& spec, std::uint64_t seed,
            bool hash, RunResult& out) {
  std::int64_t t0 = now_ns();
  p.scenario = build_scenario(spec, seed);
  out.build_s = seconds_since(t0);
  // The parallel harness samples tracer activity at construction, so the
  // hasher must be on before it.
  if (hash) p.scenario->network.add_trace_sink(&p.hasher);
  if (spec.lps > 0) {
    t0 = now_ns();
    harness::ParallelRunConfig pc;
    pc.lps = spec.lps;
    p.psim = std::make_unique<harness::ParallelSim>(*p.scenario, pc);
    out.partition_s = seconds_since(t0);
  }
  if (spec.name == "churn-10k") {
    t0 = now_ns();
    p.engine = std::make_unique<workload::WorkloadEngine>(
        *p.scenario, churn_config(seed), p.psim.get());
    p.engine->start();
    out.start_s = seconds_since(t0);
  }
}

void fill_layers(const WorkloadSpec& spec, const Plant& p, const Counters& w,
                 std::uint64_t pending_max, std::uint64_t stale_max,
                 RunResult& out) {
  std::map<std::string, double>& m = out.layers;
  const double pkts = static_cast<double>(w.delivered);
  const double run_ns = out.run_s * 1e9;
  // Under ParallelSim the proxies' spans add up over LP threads, so every
  // layer's time is divided by the LP count: the layers then split the
  // wall time, as in the sequential runs, and sum to ns_per_pkt.
  const double lanes = std::max(1, spec.lps);
  const std::vector<Tally> tallies = p.layer_tallies();
  const auto tally = [&](Layer l) -> const Tally& {
    return tallies[static_cast<std::size_t>(l)];
  };
  const auto calls = [&](Layer l) {
    return static_cast<double>(tally(l).calls);
  };
  const auto per_pkt = [&](Layer l) {
    return ratio(static_cast<double>(tally(l).self_ns()), lanes * pkts);
  };
  const auto per_call = [&](Layer l) {
    return ratio(static_cast<double>(tally(l).self_ns()), calls(l));
  };

  m["core.acks"] = calls(Layer::kCore);
  m["core.ns_per_ack"] = per_call(Layer::kCore);
  m["core.ns_per_pkt"] = per_pkt(Layer::kCore);
  m["core.retransmissions"] = static_cast<double>(w.core_rtx);
  m["core.timeouts"] = static_cast<double>(w.core_timeouts);

  m["tcp.sack.acks"] = calls(Layer::kSack);
  m["tcp.sack.ns_per_ack"] = per_call(Layer::kSack);
  m["tcp.sack.ns_per_pkt"] = per_pkt(Layer::kSack);

  m["tcp.receiver.pkts"] = calls(Layer::kReceiver);
  m["tcp.receiver.ns_per_pkt"] = per_pkt(Layer::kReceiver);
  m["tcp.receiver.out_of_order"] = static_cast<double>(w.out_of_order);

  m["routing.routes"] = calls(Layer::kRouting);
  m["routing.ns_per_route"] = per_call(Layer::kRouting);
  m["routing.ns_per_pkt"] = per_pkt(Layer::kRouting);

  m["workload.flow_server.pkts"] = calls(Layer::kFlowServer);
  m["workload.flow_server.ns_per_pkt"] = per_pkt(Layer::kFlowServer);

  double proxied_ns = 0;
  for (const Tally& t : tallies) proxied_ns += static_cast<double>(t.self_ns());
  m["sim_net.self_ns_per_pkt"] =
      ratio(lanes * run_ns - proxied_ns, lanes * pkts);

  const double events = static_cast<double>(w.events);
  m["sim.events"] = events;
  m["sim.events_per_pkt"] = ratio(events, pkts);
  m["sim.pending_max"] = static_cast<double>(pending_max);
  m["sim.stale_max"] = static_cast<double>(stale_max);

  m["net.pump_ops"] = static_cast<double>(w.pump_ops);
  m["net.pump_ops_per_event"] = ratio(static_cast<double>(w.pump_ops), events);
  m["net.queue_drops"] = static_cast<double>(w.queue_dropped);
  m["net.forwarded"] = static_cast<double>(w.forwarded);

  m["workload.arrivals"] = static_cast<double>(w.arrivals);
  m["workload.completed"] = static_cast<double>(w.completed);
  m["workload.rejected"] = static_cast<double>(w.rejected);
  m["workload.receivers_reaped"] = static_cast<double>(w.reaped);
  m["workload.bytes_per_slot"] =
      p.engine ? ratio(static_cast<double>(p.engine->slab_bytes()),
                       static_cast<double>(p.engine->slots_in_use()))
               : 0.0;

  m["harness.build_s"] = out.build_s;
  m["harness.partition_s"] = out.partition_s;
  m["workload.start_s"] = out.start_s;

  double util_min = 0;
  if (p.psim) {
    util_min = 1.0;
    for (const auto& r : p.psim->lp_reports()) {
      util_min = std::min(util_min, r.utilization);
    }
  }
  const double windows = static_cast<double>(w.windows);
  m["harness.par.windows"] = windows;
  m["harness.par.cross_lp_pkts"] = static_cast<double>(w.cross_lp);
  m["harness.par.events_per_pkt"] = p.psim ? ratio(events, pkts) : 0.0;
  m["harness.par.lp_util_min"] = util_min;
  m["harness.par.ns_per_window"] = ratio(run_ns, windows);
}

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       const RunOptions& options) {
  RunResult out;
  // Set-up takes milliseconds or less, so one sample is mostly noise: set
  // up (and tear down) extra plants first and report medians over all of
  // them, the plant that runs included.
  std::vector<double> build;
  std::vector<double> partition;
  std::vector<double> start;
  std::vector<double> total;
  const auto note = [&](const RunResult& r) {
    build.push_back(r.build_s);
    partition.push_back(r.partition_s);
    start.push_back(r.start_s);
    total.push_back(r.build_s + r.partition_s + r.start_s);
  };
  // Timed runs only. A process's first set-ups are slow (page faults on a
  // fresh heap, cold caches: the first ten 4096-flow plants take about
  // 2.5x as long as later ones), so set-ups in the first 0.1 s are not
  // kept. Then rounds for 0.4 s, at least 5: each sets up plants for 2 ms
  // (at least one, at most 50) and then runs the reference kernel, and each
  // of its set-ups is divided by the mean of the kernel's times on either
  // side of the round.
  const bool timed = !options.hash && !options.trace;
  const auto scratch_set_up = [&] {
    Plant scratch;
    RunResult r;
    set_up(scratch, spec, seed, false, r);
    return r;
  };
  const std::int64_t keep_from = now_ns() + 100'000'000;
  while (timed && now_ns() < keep_from) scratch_set_up();
  const std::int64_t keep_until = now_ns() + 400'000'000;
  std::vector<double> setup_ref;
  double ref_before = timed ? reference_s() : 0;
  for (int round = 0; timed && (round < 5 || now_ns() < keep_until);
       ++round) {
    const std::size_t first = total.size();
    const std::int64_t round_end = now_ns() + 2'000'000;
    do {
      note(scratch_set_up());
    } while (now_ns() < round_end && total.size() - first < 50);
    const double ref_after = reference_s();
    const double ref = 0.5 * (ref_before + ref_after);
    for (std::size_t i = first; i < total.size(); ++i) {
      setup_ref.push_back(total[i] / ref);
    }
    ref_before = ref_after;
  }
  out.setup_per_ref = timed ? median(setup_ref) : 0;
  Plant p;
  set_up(p, spec, seed, options.hash, out);
  note(out);
  out.build_s = median(build);
  out.partition_s = median(partition);
  out.start_s = median(start);
  out.setup_s = median(total);

  // Warm-up, untimed and without proxies.
  p.run_until(sim::TimePoint::from_seconds(spec.warm_s));
  const Counters before = p.counters();
  if (options.trace) p.attach_proxies();

  // The timed windows, each bracketed by runs of the reference kernel.
  // Traced runs call run_until in slices and sample the scheduler shards'
  // pending sets between them.
  const std::vector<sim::Scheduler*> scheds = p.schedulers();
  const int slices = options.trace ? 12 : 1;
  std::uint64_t pending_max = 0;
  std::uint64_t stale_max = 0;
  ref_before = reference_s();
  for (int w = 0; w < spec.windows; ++w) {
    const double w0 = spec.warm_s + w * spec.window_s;
    std::int64_t run_ns = 0;
    for (int i = 1; i <= slices; ++i) {
      const double t = i == slices ? spec.warm_s + (w + 1) * spec.window_s
                                   : w0 + spec.window_s * i / slices;
      const std::int64_t t0 = now_ns();
      p.run_until(sim::TimePoint::from_seconds(t));
      run_ns += now_ns() - t0;
      if (!options.trace) continue;
      std::uint64_t pending = 0;
      std::uint64_t queued = 0;
      for (const sim::Scheduler* s : scheds) {
        pending += s->pending_count();
        queued += s->queued_count();
      }
      pending_max = std::max(pending_max, pending);
      stale_max = std::max(stale_max, queued - pending);
    }
    out.window_run_s.push_back(static_cast<double>(run_ns) * 1e-9);
    out.run_s += out.window_run_s.back();
    const double ref_after = reference_s();
    out.window_ref_s.push_back(0.5 * (ref_before + ref_after));
    ref_before = ref_after;
  }

  const Counters after = p.counters();
  const Counters window = after - before;
  out.pkts = window.delivered;
  out.events = window.events;
  out.pump_ops = window.pump_ops;
  out.flows = window.completed;

  const harness::Scenario& s = *p.scenario;
  const net::Network::ConservationSnapshot cons = s.network.conservation();
  out.fp.delivered = cons.delivered_to_agent;
  out.fp.originated = cons.originated;
  out.fp.queue_dropped = cons.queue_dropped;
  for (const auto* senders : {&s.senders, &s.cross_senders}) {
    for (const auto& snd : *senders) {
      out.fp.retransmissions += snd->stats().retransmissions;
    }
  }
  out.fp.completed = after.completed;
  out.hash = p.hasher.hash();
  if (options.trace) {
    fill_layers(spec, p, window, pending_max, stale_max, out);
  }
  return out;
}

}  // namespace perfbench
