#include "validate/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>

#include "harness/parallel.hpp"
#include "harness/parallel_run.hpp"
#include "net/link_flapper.hpp"
#include "sim/random.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "validate/determinism.hpp"
#include "validate/invariants.hpp"
#include "workload/workload.hpp"

namespace tcppr::validate {

const char* to_string(FuzzCase::Topology topology) {
  switch (topology) {
    case FuzzCase::Topology::kDumbbell:
      return "dumbbell";
    case FuzzCase::Topology::kParkingLot:
      return "parking-lot";
    case FuzzCase::Topology::kMultipath:
      return "multipath";
    case FuzzCase::Topology::kRandomGraph:
      return "random-graph";
  }
  return "?";
}

FuzzCase sample_fuzz_case(std::uint64_t seed) {
  sim::Rng rng = sim::Rng(seed).fork(0xFA55);
  FuzzCase c;
  c.seed = seed;

  const double topo_weights[] = {0.35, 0.2, 0.2, 0.25};
  c.topology = static_cast<FuzzCase::Topology>(rng.categorical(topo_weights, 4));

  const auto& variants = harness::all_variants();
  c.flows = c.topology == FuzzCase::Topology::kMultipath
                ? 1
                : 1 + static_cast<int>(rng.uniform_int(4));
  c.variants.clear();
  for (int i = 0; i < c.flows; ++i) {
    c.variants.push_back(variants[rng.uniform_int(variants.size())]);
  }

  c.duration_s = rng.uniform(3.0, 8.0);
  c.cross_traffic =
      c.topology == FuzzCase::Topology::kParkingLot && rng.bernoulli(0.5);
  c.loss_rate = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.05) : 0.0;
  c.jitter_ms = rng.bernoulli(0.5) ? rng.uniform(0.0, 20.0) : 0.0;
  c.flap = rng.bernoulli(0.3);
  c.flap_mean_up_s = rng.uniform(0.5, 2.0);
  c.flap_mean_down_s = rng.uniform(0.05, 0.4);
  c.reconfigure_mid_run = rng.bernoulli(0.3);
  const double eps_values[] = {0, 1, 4, 10, 500};
  c.epsilon = eps_values[rng.uniform_int(5)];
  c.graph_nodes = 4 + static_cast<int>(rng.uniform_int(5));
  // Churn draws come last (see the header): the prefix of the stream is
  // exactly what the pre-churn sampler consumed, so seeds keep producing
  // the same topology/fault mix they always did.
  c.churn_rate = rng.bernoulli(0.3) ? rng.uniform(100.0, 800.0) : 0.0;
  c.churn_kind = static_cast<int>(rng.uniform_int(3));
  // Telemetry draws after churn: same seed-prefix rule, next dimension.
  c.telemetry = rng.bernoulli(0.35);
  return c;
}

std::string describe(const FuzzCase& c) {
  char buf[384];
  std::string variants;
  for (const auto v : c.variants) {
    if (!variants.empty()) variants += ",";
    variants += harness::to_string(v);
  }
  const char* churn_kinds[] = {"poisson", "web", "onoff"};
  char churn[48];
  if (c.churn_rate > 0) {
    std::snprintf(churn, sizeof(churn), "%s@%.0f/s",
                  churn_kinds[c.churn_kind % 3], c.churn_rate);
  } else {
    std::snprintf(churn, sizeof(churn), "off");
  }
  std::snprintf(
      buf, sizeof(buf),
      "topology=%s flows=%d variants=[%s] dur=%.2fs cross=%d loss=%.4f "
      "jitter=%.1fms flap=%d(up=%.2fs,down=%.2fs) reconf=%d eps=%g nodes=%d "
      "par=%d churn=%s telemetry=%d",
      to_string(c.topology), c.flows, variants.c_str(), c.duration_s,
      c.cross_traffic ? 1 : 0, c.loss_rate, c.jitter_ms, c.flap ? 1 : 0,
      c.flap_mean_up_s, c.flap_mean_down_s, c.reconfigure_mid_run ? 1 : 0,
      c.epsilon, c.graph_nodes, c.par_lps, churn, c.telemetry ? 1 : 0);
  return buf;
}

namespace {

std::unique_ptr<harness::Scenario> build_random_graph(const FuzzCase& c,
                                                      sim::Rng& rng) {
  auto s = std::make_unique<harness::Scenario>();
  net::Network& nw = s->network;
  const int n = std::max(4, c.graph_nodes);
  for (int i = 0; i < n; ++i) nw.add_node();

  net::LinkConfig link;
  link.bandwidth_bps = 10e6;
  link.delay = sim::Duration::millis(5);
  link.queue_limit_packets = 50;
  // Ring plus two chords: every pair of nodes has at least two
  // edge-disjoint routes, so flapped or reconfigured links reroute rather
  // than partition.
  for (int i = 0; i < n; ++i) {
    auto [fwd, rev] = nw.add_duplex_link(i, (i + 1) % n, link);
    s->bottlenecks.push_back(fwd);
    (void)rev;
  }
  auto [c1, c1r] = nw.add_duplex_link(0, n / 2, link);
  s->bottlenecks.push_back(c1);
  (void)c1r;
  if (n >= 6) {
    auto [c2, c2r] = nw.add_duplex_link(1, 1 + n / 2, link);
    s->bottlenecks.push_back(c2);
    (void)c2r;
  }
  nw.compute_static_routes();
  s->src_host = 0;
  s->dst_host = n / 2;

  tcp::TcpConfig tcp;
  core::TcpPrConfig pr;
  for (int i = 0; i < c.flows; ++i) {
    const net::NodeId src = static_cast<net::NodeId>(rng.uniform_int(n));
    net::NodeId dst = static_cast<net::NodeId>(rng.uniform_int(n));
    if (dst == src) dst = (dst + 1 + static_cast<net::NodeId>(n) / 2) % n;
    const auto start = sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0));
    s->add_flow(c.variants[static_cast<std::size_t>(i)], src, dst,
                /*flow=*/i + 1, tcp, pr, start);
  }
  return s;
}

std::unique_ptr<harness::Scenario> build_scenario(const FuzzCase& c,
                                                  sim::Rng& rng) {
  switch (c.topology) {
    case FuzzCase::Topology::kDumbbell: {
      harness::DumbbellConfig cfg;
      cfg.pr_flows = 0;
      cfg.sack_flows = 0;
      cfg.seed = c.seed;
      auto s = harness::make_dumbbell(cfg);
      for (int i = 0; i < c.flows; ++i) {
        const auto start = sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0));
        s->add_flow(c.variants[static_cast<std::size_t>(i)], s->src_host,
                    s->dst_host, /*flow=*/i + 1, cfg.tcp, cfg.pr, start);
      }
      return s;
    }
    case FuzzCase::Topology::kParkingLot: {
      harness::ParkingLotConfig cfg;
      cfg.pr_flows = 0;
      cfg.sack_flows = 0;
      cfg.with_cross_traffic = c.cross_traffic;
      cfg.seed = c.seed;
      auto s = harness::make_parking_lot(cfg);
      for (int i = 0; i < c.flows; ++i) {
        const auto start = sim::TimePoint::from_seconds(rng.uniform(0.0, 1.0));
        s->add_flow(c.variants[static_cast<std::size_t>(i)], s->src_host,
                    s->dst_host, /*flow=*/100 + i, cfg.tcp, cfg.pr, start);
      }
      return s;
    }
    case FuzzCase::Topology::kMultipath: {
      harness::MultipathConfig cfg;
      cfg.variant = c.variants.empty() ? harness::TcpVariant::kTcpPr
                                       : c.variants.front();
      cfg.epsilon = c.epsilon;
      cfg.seed = c.seed;
      return harness::make_multipath(cfg);
    }
    case FuzzCase::Topology::kRandomGraph:
      return build_random_graph(c, rng);
  }
  TCPPR_CHECK(false);
  return nullptr;
}

}  // namespace

FuzzResult run_fuzz_case(const FuzzCase& c) {
  sim::Rng rng = sim::Rng(c.seed).fork(0xB01D);
  std::unique_ptr<harness::Scenario> scenario = build_scenario(c, rng);
  harness::Scenario& s = *scenario;

  // Fault processes over the scenario's bottleneck set.
  if (c.loss_rate > 0) {
    int applied = 0;
    for (net::Link* link : s.bottlenecks) {
      link->set_loss_model(c.loss_rate, rng.fork(1000 + applied));
      if (++applied >= 2) break;
    }
  }
  if (c.jitter_ms > 0) {
    int applied = 0;
    for (net::Link* link : s.bottlenecks) {
      link->set_jitter(sim::Duration::millis(c.jitter_ms),
                       rng.fork(2000 + applied));
      if (++applied >= 2) break;
    }
  }
  // Mid-run reconfiguration and mutation knobs go through
  // Scenario::schedule_action (identical to a plain schedule_at in
  // sequential runs) so parallel adoption can move them onto the shard
  // owning the touched object.
  if (c.reconfigure_mid_run && !s.bottlenecks.empty()) {
    net::Link* link = s.bottlenecks.front();
    s.schedule_action(sim::TimePoint::from_seconds(c.duration_s / 2),
                      link->from(), [link] {
                        link->set_bandwidth(link->bandwidth_bps() / 2);
                        link->set_prop_delay(link->prop_delay() * 2.0);
                      });
  }
  if (c.corrupt_transit_for_test && !s.bottlenecks.empty()) {
    s.bottlenecks.front()->corrupt_transit_accounting_for_test();
  }
  if (c.corrupt_delivery_for_test && !s.receivers.empty()) {
    tcp::Receiver* rx = s.receivers.front().get();
    s.schedule_action(sim::TimePoint::from_seconds(c.duration_s / 2),
                      rx->local_node(),
                      [rx] { rx->corrupt_delivered_hash_for_test(); });
  }

  // Link-tap telemetry attaches before the run so every delivery is
  // observed; the exact baseline is on (fuzz cases are small), making each
  // sweep a sketch-vs-ground-truth differential check.
  std::unique_ptr<telemetry::Telemetry> telemetry;
  if (c.telemetry) {
    telemetry::TelemetryConfig tc;
    tc.tap.exact_baseline = true;
    telemetry = std::make_unique<telemetry::Telemetry>(s.network, tc);
    if (c.corrupt_telemetry_for_test) {
      telemetry::Telemetry* t = telemetry.get();
      s.schedule_action(sim::TimePoint::from_seconds(c.duration_s / 2),
                        /*affinity=*/0, [t] { t->corrupt_sketch_for_test(); });
    }
  }

  DeliveryHasher hasher;
  s.network.add_trace_sink(&hasher);
  InvariantChecker checker(s);
  checker.set_telemetry(telemetry.get());

  // Parallel mode: shards, mailboxes and adoption happen here, after all
  // build-time scheduling above (the ParallelSim CHECKs the build
  // scheduler drained). The checker sweeps at barriers instead of on its
  // own timer.
  std::unique_ptr<harness::ParallelSim> psim;
  if (c.par_lps >= 1) {
    harness::ParallelRunConfig pc;
    pc.lps = c.par_lps;
    psim = std::make_unique<harness::ParallelSim>(s, pc);
    psim->set_checker(&checker);
  }

  // The flapper is created directly on the shard owning the flapped link
  // (its toggle events and the link's queue events must share an LP).
  std::unique_ptr<net::LinkFlapper> flapper;
  if (c.flap && !s.bottlenecks.empty()) {
    net::LinkFlapper::Config fc;
    fc.mean_up = sim::Duration::seconds(c.flap_mean_up_s);
    fc.mean_down = sim::Duration::seconds(c.flap_mean_down_s);
    fc.seed = c.seed ^ 0x5Au;
    net::Link* link = s.bottlenecks.front();
    sim::Scheduler& flap_sched =
        psim != nullptr ? psim->shard_for(link->from()) : s.sched;
    flapper = std::make_unique<net::LinkFlapper>(
        flap_sched, std::vector<net::Link*>{link}, fc);
    flapper->start();
  }

  // Background churn: a small workload engine sprays short dynamic
  // transfers between the scenario's src/dst hosts alongside the measured
  // flows — dynamic sender/receiver lifecycles, slot quarantine and idle
  // reaping now run under the checker and the delivery-hash oracle. Like
  // the flapper it is created after the ParallelSim so its arrival and
  // teardown events land on the shards owning the hosts, and (borrowing
  // both) it is destroyed before them.
  std::unique_ptr<workload::WorkloadEngine> engine;
  if (c.churn_rate > 0) {
    workload::WorkloadConfig wc;
    const workload::WorkloadKind kinds[] = {workload::WorkloadKind::kPoisson,
                                            workload::WorkloadKind::kWeb,
                                            workload::WorkloadKind::kOnOff};
    wc.kind = kinds[c.churn_kind % 3];
    wc.arrival_rate = c.churn_rate;
    wc.onoff_sources = 16;
    wc.max_segments = 64;  // short transfers: real churn inside duration_s
    wc.max_concurrent = 64;
    wc.id_slots = 256;
    wc.quarantine = sim::Duration::seconds(1);
    wc.reap_idle = sim::Duration::millis(400);
    wc.reap_sweep = sim::Duration::millis(100);
    wc.seed = c.seed ^ 0xC4u;
    engine = std::make_unique<workload::WorkloadEngine>(s, wc, psim.get());
    // Departed dynamic flows fold out of the link taps as they die —
    // sequential runs only (taps belong to shard threads under --par; there
    // the slot-tenure pressure displaces dead flows instead).
    if (telemetry != nullptr && psim == nullptr) {
      engine->set_telemetry(telemetry.get());
    }
    engine->start();
  }

  const auto end = sim::TimePoint::from_seconds(c.duration_s);
  if (psim != nullptr) {
    psim->run_until(end);
  } else {
    checker.start();
    s.sched.run_until(end);
  }
  if (engine) engine->stop();
  if (flapper) flapper->stop();
  checker.finalize();

  FuzzResult result;
  result.ok = checker.ok();
  result.violations = checker.total_violations();
  if (!checker.violations().empty()) {
    result.first_violation = checker.violations().front().what;
  }
  const net::Network::ConservationSnapshot cons = s.network.conservation();
  result.delivered = cons.delivered_to_agent;
  result.delivery_hash = hasher.hash();
  result.originated = cons.originated;
  result.queue_dropped = cons.queue_dropped;
  for (const auto* senders : {&s.senders, &s.cross_senders}) {
    for (const auto& snd : *senders) {
      result.retransmissions += snd->stats().retransmissions;
    }
  }
  return result;
}

FuzzCase minimize_fuzz_case(const FuzzCase& failing, int max_runs) {
  FuzzCase best = failing;
  int runs = 0;
  const auto still_fails = [&](const FuzzCase& candidate) {
    if (runs >= max_runs) return false;
    ++runs;
    return !run_fuzz_case(candidate).ok;
  };

  // One simplification per pass, greedily accepted; repeat until a full
  // pass changes nothing or the run budget is spent.
  bool changed = true;
  while (changed && runs < max_runs) {
    changed = false;
    // Telemetry first: it is pure observation, so a failure that survives
    // without it was never a telemetry bug and every later simplification
    // runs cheaper.
    FuzzCase t = best;
    if (best.telemetry) {
      t.telemetry = false;
      t.corrupt_telemetry_for_test = false;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.churn_rate > 0) {
      t.churn_rate = 0;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.reconfigure_mid_run) {
      t.reconfigure_mid_run = false;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.flap) {
      t.flap = false;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.jitter_ms > 0) {
      t.jitter_ms = 0;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.loss_rate > 0) {
      t.loss_rate = 0;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.cross_traffic) {
      t.cross_traffic = false;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.flows > 1) {
      t.flows = 1;
      t.variants.resize(1);
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.duration_s > 1.5) {
      t.duration_s = std::max(1.0, best.duration_s / 2);
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
    t = best;
    if (best.topology != FuzzCase::Topology::kDumbbell) {
      t.topology = FuzzCase::Topology::kDumbbell;
      if (still_fails(t)) { best = t; changed = true; continue; }
    }
  }
  return best;
}

int run_fuzz_campaign(std::uint64_t first_seed, int count, int jobs,
                      bool quiet, const std::string& artifact_dir,
                      int par_lps) {
  struct CellResult {
    bool ok = true;
    std::string failure;
  };
  std::vector<CellResult> results(static_cast<std::size_t>(count));
  harness::parallel_for(jobs, count, [&](int i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    FuzzCase c = sample_fuzz_case(seed);
    c.par_lps = par_lps;
    const FuzzResult r = run_fuzz_case(c);
    if (!r.ok) {
      results[static_cast<std::size_t>(i)].ok = false;
      results[static_cast<std::size_t>(i)].failure = r.first_violation;
    }
  });

  int failures = 0;
  bool artifact_dir_ready = false;
  for (int i = 0; i < count; ++i) {
    if (results[static_cast<std::size_t>(i)].ok) continue;
    ++failures;
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    FuzzCase c = sample_fuzz_case(seed);
    c.par_lps = par_lps;
    std::fprintf(stderr, "FUZZ FAIL: tcppr_sim --fuzz-seed %llu  # %s\n",
                 static_cast<unsigned long long>(seed), describe(c).c_str());
    std::fprintf(stderr, "  first violation: %s\n",
                 results[static_cast<std::size_t>(i)].failure.c_str());
    std::string minimized;
    if (!quiet) {
      const FuzzCase min = minimize_fuzz_case(c);
      minimized = describe(min);
      std::fprintf(stderr, "  minimized: %s\n", minimized.c_str());
    }
    if (!artifact_dir.empty()) {
      if (!artifact_dir_ready) {
        std::error_code ec;
        std::filesystem::create_directories(artifact_dir, ec);
        artifact_dir_ready = !ec;
        if (ec) {
          std::fprintf(stderr, "fuzz: cannot create artifact dir %s: %s\n",
                       artifact_dir.c_str(), ec.message().c_str());
        }
      }
      if (artifact_dir_ready) {
        const std::string path = artifact_dir + "/fuzz-fail-" +
                                 std::to_string(seed) + ".txt";
        if (std::FILE* f = std::fopen(path.c_str(), "w")) {
          std::fprintf(f, "reproduce: tcppr_sim --fuzz-seed %llu\n",
                       static_cast<unsigned long long>(seed));
          std::fprintf(f, "config: %s\n", describe(c).c_str());
          std::fprintf(f, "first violation: %s\n",
                       results[static_cast<std::size_t>(i)].failure.c_str());
          if (!minimized.empty()) {
            std::fprintf(f, "minimized: %s\n", minimized.c_str());
          }
          std::fclose(f);
        } else {
          std::fprintf(stderr, "fuzz: cannot write %s\n", path.c_str());
        }
      }
    }
  }
  return failures;
}

}  // namespace tcppr::validate
