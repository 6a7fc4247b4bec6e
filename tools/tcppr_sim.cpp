// tcppr_sim — scenario driver CLI.
//
// Runs any of the paper's topologies with any sender variant and prints
// per-flow results plus the fairness metrics; optionally writes an
// ns-2-style packet trace. Everything the figure benches do, one run at a
// time, scriptable.
//
//   tcppr_sim --topology dumbbell --pr-flows 4 --sack-flows 4
//   tcppr_sim --topology multipath --variant inc-by-n --epsilon 1
//   tcppr_sim --topology parking-lot --duration 100 --trace run.tr
//   tcppr_sim --validate --topology dumbbell         # run under the checker
//   tcppr_sim --fuzz 100 --jobs 4                    # fuzz seeds 1..100
//   tcppr_sim --fuzz-seed 42                         # replay one fuzz case
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel_run.hpp"
#include "obs/registry.hpp"
#include "obs/series.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "validate/fuzzer.hpp"
#include "validate/invariants.hpp"
#include "workload/workload.hpp"

namespace {

using namespace tcppr;
using harness::TcpVariant;

struct Args {
  std::string topology = "dumbbell";
  std::string variant = "tcp-pr";
  double epsilon = 0;
  int pr_flows = 2;
  int sack_flows = 2;
  int flows = 256;           // many-flows / fan-dumbbell topologies
  int fan_width = 8;         // fan-dumbbell relays per side
  double pr_fraction = 0.5;  // many-flows variant mix
  double duration_s = 60;
  std::optional<double> measured_s;  // default: min(30, duration)
  double bottleneck_mbps = 15;
  std::optional<double> link_delay_ms;  // default: the topology's
  double alpha = 0.995;
  double beta = 3.0;
  std::uint64_t seed = 1;
  std::string trace_path;
  std::string ts_out;
  double ts_interval_s = 0.1;
  bool validate = false;
  bool telemetry = false;  // per-link reordering taps + summary table
  std::string workload;       // "", poisson, web, onoff, million
  double arrival_rate = 100;  // dynamic-flow arrivals per second
  std::optional<int> max_concurrent;  // workload cap override
  std::optional<int> id_slots;        // workload id-space override
  // Exit nonzero unless the workload's peak concurrency reaches this.
  std::size_t expect_concurrent = 0;
  int par = 0;  // 0 = sequential, >= 1 = parallel harness with N LPs
  std::optional<int> fuzz_count;
  std::optional<std::uint64_t> fuzz_seed;
  int jobs = 1;
  std::string fuzz_artifacts;
};

std::optional<TcpVariant> parse_variant(const std::string& name) {
  for (const TcpVariant v : harness::all_variants()) {
    if (name == to_string(v)) return v;
  }
  return std::nullopt;
}

std::optional<workload::WorkloadKind> parse_workload(const std::string& name) {
  if (name == "poisson") return workload::WorkloadKind::kPoisson;
  if (name == "web") return workload::WorkloadKind::kWeb;
  if (name == "onoff") return workload::WorkloadKind::kOnOff;
  return std::nullopt;
}

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "tcppr_sim — run one simulation scenario\n\n"
      "  --topology dumbbell|parking-lot|multipath|many-flows|\n"
      "             many-flows-graph|fan-dumbbell     (default dumbbell)\n"
      "  --variant <name>      sender for multipath runs (default tcp-pr)\n"
      "                        names: tcp-pr sack reno newreno tahoe td-fr\n"
      "                        dsack-nm inc-by-1 inc-by-n ewma eifel tcp-door\n"
      "  --epsilon <e>         multipath spread parameter (default 0)\n"
      "  --pr-flows <n>        dumbbell/parking-lot TCP-PR flows (default 2)\n"
      "  --sack-flows <n>      dumbbell/parking-lot TCP-SACK flows (default 2)\n"
      "  --flows <n>           many-flows flow count 1..4096, or the\n"
      "                        fan-dumbbell concurrency target 1..2^20\n"
      "                        (default 256)\n"
      "  --fan-width <n>       fan-dumbbell relay nodes per side (default 8)\n"
      "  --pr-fraction <f>     many-flows TCP-PR share (default 0.5)\n"
      "  --duration <s>        total simulated seconds (default 60)\n"
      "  --measured <s>        trailing measurement window, at most\n"
      "                        --duration (default 30 or --duration)\n"
      "  --bottleneck <mbps>   dumbbell bottleneck (default 15)\n"
      "  --delay <ms>          link delay override\n"
      "  --alpha <a> --beta <b>  TCP-PR parameters (default 0.995 / 3)\n"
      "  --seed <n>            RNG seed (default 1)\n"
      "  --trace <file>        write an ns-2-style packet trace\n"
      "  --ts-out <file>       write flow/queue time series (.ndjson for\n"
      "                        NDJSON, anything else for CSV)\n"
      "  --ts-interval <s>     queue sampling interval (default 0.1)\n"
      "  --validate            run under the invariant checker; nonzero\n"
      "                        exit and a report on any violation\n"
      "  --telemetry           attach a constant-memory reordering tap to\n"
      "                        every link and print the summary table;\n"
      "                        with --validate the taps carry an exact\n"
      "                        baseline checked against the sketches\n"
      "  --workload poisson|web|onoff|million  overlay dynamic flow churn\n"
      "                        between the scenario's src/dst hosts: flows\n"
      "                        arrive, transfer and depart (src/workload\n"
      "                        engine). `million` is the tuned steady-state\n"
      "                        preset whose on/off population pins\n"
      "                        concurrency at --flows (pair with\n"
      "                        --topology fan-dumbbell)\n"
      "  --arrival-rate <r>    workload mean arrivals per second\n"
      "                        (default 100; on/off kind ignores it)\n"
      "  --max-concurrent <n>  workload concurrency cap override\n"
      "  --id-slots <n>        workload flow-id slot table size override\n"
      "  --expect-concurrent <n>  exit nonzero unless the workload's peak\n"
      "                        concurrency reached n (scale gating)\n"
      "  --par <n>             run on n parallel scheduler shards (LPs),\n"
      "                        0..64; byte-identical for every n >= 1. A\n"
      "                        run without --par breaks same-nanosecond\n"
      "                        ties by insertion order, so it can differ.\n"
      "                        Also applies to --fuzz and --fuzz-seed runs\n"
      "  --fuzz <n>            fuzz campaign over seeds [--seed, --seed+n),\n"
      "                        n >= 1\n"
      "  --fuzz-seed <n>       replay one fuzz case under the checker\n"
      "  --fuzz-artifacts <dir>  write per-seed reproducer files for\n"
      "                        failing fuzz seeds into <dir>\n"
      "  --jobs <j>            fuzz campaign worker threads, 1..64\n"
      "                        (default 1)\n");
}

// Numeric flag values must be the whole token: "2x", "abc" and "" are
// usage errors naming the flag, not a silent atoi() prefix or zero.
// Reals must also be finite; unsigned values take no sign.
bool read_int(const char* text, int& out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

bool read_u64(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

bool read_real(const char* text, double& out) {
  if (*text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

// Appends every usage error (exit 2) to `errors`. Parsing continues past
// a malformed value and stops at an unknown flag, whose value tokens, if
// any, cannot be told apart from flags.
void parse(int argc, char** argv, Args& args,
           std::vector<std::string>& errors) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    const auto next = [&]() -> const char* {
      value = i + 1 < argc ? argv[++i] : nullptr;
      if (value == nullptr) errors.push_back(flag + " needs a value");
      return value != nullptr ? value : "";
    };
    const auto bad = [&](const char* kind) {
      if (value == nullptr) return;  // already reported as missing
      errors.push_back(flag + " must be " + kind + ", got '" + value + "'");
    };
    const auto integer = [&](int& out) {
      if (!read_int(next(), out)) bad("an integer");
    };
    const auto unsigned_integer = [&](std::uint64_t& out) {
      if (!read_u64(next(), out)) bad("an unsigned integer");
    };
    const auto real = [&](double& out) {
      if (!read_real(next(), out)) bad("a finite number");
    };
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (flag == "--topology") {
      args.topology = next();
    } else if (flag == "--variant") {
      args.variant = next();
    } else if (flag == "--flows") {
      integer(args.flows);
    } else if (flag == "--fan-width") {
      integer(args.fan_width);
    } else if (flag == "--pr-fraction") {
      real(args.pr_fraction);
    } else if (flag == "--epsilon") {
      real(args.epsilon);
    } else if (flag == "--pr-flows") {
      integer(args.pr_flows);
    } else if (flag == "--sack-flows") {
      integer(args.sack_flows);
    } else if (flag == "--duration") {
      real(args.duration_s);
    } else if (flag == "--measured") {
      real(args.measured_s.emplace());
    } else if (flag == "--bottleneck") {
      real(args.bottleneck_mbps);
    } else if (flag == "--delay") {
      real(args.link_delay_ms.emplace());
    } else if (flag == "--alpha") {
      real(args.alpha);
    } else if (flag == "--beta") {
      real(args.beta);
    } else if (flag == "--seed") {
      unsigned_integer(args.seed);
    } else if (flag == "--trace") {
      args.trace_path = next();
    } else if (flag == "--ts-out") {
      args.ts_out = next();
    } else if (flag == "--ts-interval") {
      real(args.ts_interval_s);
    } else if (flag == "--validate") {
      args.validate = true;
    } else if (flag == "--telemetry") {
      args.telemetry = true;
    } else if (flag == "--workload") {
      args.workload = next();
    } else if (flag == "--arrival-rate") {
      real(args.arrival_rate);
    } else if (flag == "--max-concurrent") {
      integer(args.max_concurrent.emplace());
    } else if (flag == "--id-slots") {
      integer(args.id_slots.emplace());
    } else if (flag == "--expect-concurrent") {
      std::uint64_t n = 0;
      unsigned_integer(n);
      args.expect_concurrent = static_cast<std::size_t>(n);
    } else if (flag == "--par") {
      integer(args.par);
    } else if (flag == "--fuzz") {
      integer(args.fuzz_count.emplace());
    } else if (flag == "--fuzz-seed") {
      unsigned_integer(args.fuzz_seed.emplace());
    } else if (flag == "--fuzz-artifacts") {
      args.fuzz_artifacts = next();
    } else if (flag == "--jobs") {
      integer(args.jobs);
    } else {
      errors.push_back("unknown flag " + flag);
      return;
    }
  }
}

double measured_seconds(const Args& args) {
  return args.measured_s.value_or(std::min(30.0, args.duration_s));
}

// Range checks on the values handed to the library, made before anything
// is built: a bad value is a usage error naming its flag, not an internal
// check failure mid-build or a silent all-zero run.
std::vector<std::string> check_args(const Args& args) {
  std::vector<std::string> errors;
  const auto add = [&errors](const char* rule, double value) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s, got %g", rule, value);
    errors.emplace_back(buf);
  };
  // The negated forms also reject NaN.
  if (!(args.duration_s > 0 && std::isfinite(args.duration_s))) {
    add("--duration must be a finite number of seconds > 0", args.duration_s);
  }
  if (args.measured_s &&
      !(*args.measured_s > 0 && *args.measured_s <= args.duration_s)) {
    add("--measured must be > 0 and at most --duration", *args.measured_s);
  }
  if (!(args.epsilon >= 0 && std::isfinite(args.epsilon))) {
    add("--epsilon must be a finite number >= 0", args.epsilon);
  }
  if (!(args.bottleneck_mbps > 0 && std::isfinite(args.bottleneck_mbps))) {
    add("--bottleneck must be a finite number of Mbps > 0",
        args.bottleneck_mbps);
  }
  if (args.link_delay_ms &&
      !(*args.link_delay_ms > 0 && std::isfinite(*args.link_delay_ms))) {
    add("--delay must be a finite number of ms > 0", *args.link_delay_ms);
  }
  if (!(args.ts_interval_s >= 1e-9 && std::isfinite(args.ts_interval_s))) {
    add("--ts-interval must be a finite number of seconds >= 1e-9",
        args.ts_interval_s);
  }
  if (!(args.arrival_rate > 0 && std::isfinite(args.arrival_rate))) {
    add("--arrival-rate must be a finite number > 0", args.arrival_rate);
  }
  if (!(args.pr_fraction >= 0 && args.pr_fraction <= 1)) {
    add("--pr-fraction must be in [0, 1]", args.pr_fraction);
  }
  if (args.pr_flows < 0) add("--pr-flows must be >= 0", args.pr_flows);
  if (args.sack_flows < 0) add("--sack-flows must be >= 0", args.sack_flows);
  if ((args.topology == "dumbbell" || args.topology == "parking-lot") &&
      args.workload.empty() && args.pr_flows + args.sack_flows < 1) {
    add("--pr-flows + --sack-flows must be >= 1 unless --workload adds flows",
        args.pr_flows + args.sack_flows);
  }
  int max_flows = 0;
  if (args.topology == "many-flows" || args.topology == "many-flows-graph") {
    max_flows = harness::ManyFlowsConfig::kMaxFlows;
  } else if (args.topology == "fan-dumbbell") {
    max_flows = harness::FanDumbbellConfig::kMaxFlows;
    if (args.fan_width < 1) add("--fan-width must be >= 1", args.fan_width);
  }
  if (max_flows > 0 && !(args.flows >= 1 && args.flows <= max_flows)) {
    char rule[64];
    std::snprintf(rule, sizeof(rule), "--flows must be in 1..%d for %s",
                  max_flows, args.topology.c_str());
    add(rule, args.flows);
  }
  if (args.max_concurrent && *args.max_concurrent < 1) {
    add("--max-concurrent must be >= 1", *args.max_concurrent);
  }
  if (args.id_slots && *args.id_slots < 1) {
    add("--id-slots must be >= 1", *args.id_slots);
  }
  if (!(args.par >= 0 && args.par <= 64)) {
    add("--par must be in 0..64", args.par);
  }
  if (!(args.jobs >= 1 && args.jobs <= 64)) {
    add("--jobs must be in 1..64", args.jobs);
  }
  if (args.fuzz_count && *args.fuzz_count < 1) {
    add("--fuzz must be >= 1", *args.fuzz_count);
  }
  if (args.workload == "million" && args.par >= 1) {
    // The preset starts its whole on/off population in one nanosecond on
    // one host; under --par every one of those starts takes a stamp, and a
    // stamp has room for 1024 ops per node per nanosecond.
    char rule[192];
    std::snprintf(rule, sizeof(rule),
                  "--workload million cannot run with --par: it starts its "
                  "whole population in one nanosecond on one host, past the "
                  "stamp budget of %u ops per node per nanosecond",
                  1u << sim::Scheduler::kStampOpBits);
    errors.emplace_back(rule);
  }
  core::TcpPrConfig pr;
  pr.alpha = args.alpha;
  pr.beta = args.beta;
  // TcpPrConfig's messages start with the field name, which is the flag's.
  for (const std::string& e : pr.validate()) errors.push_back("--" + e);
  return errors;
}

std::unique_ptr<harness::Scenario> build(const Args& args) {
  core::TcpPrConfig pr;
  pr.alpha = args.alpha;
  pr.beta = args.beta;
  if (args.topology == "many-flows" || args.topology == "many-flows-graph") {
    harness::ManyFlowsConfig config;
    config.topology = args.topology == "many-flows-graph"
                          ? harness::ManyFlowsConfig::Topology::kRandomGraph
                          : harness::ManyFlowsConfig::Topology::kDumbbell;
    config.flows = args.flows;
    config.pr_fraction = args.pr_fraction;
    if (args.link_delay_ms) {
      config.bottleneck_delay = sim::Duration::millis(*args.link_delay_ms);
      config.graph_delay = sim::Duration::millis(*args.link_delay_ms);
    }
    config.pr = pr;
    config.seed = args.seed;
    return harness::make_many_flows(config);
  }
  if (args.topology == "fan-dumbbell") {
    harness::FanDumbbellConfig config = harness::million_fan_config(args.flows);
    config.fan_width = args.fan_width;
    if (args.link_delay_ms) {
      config.bottleneck_delay = sim::Duration::millis(*args.link_delay_ms);
    }
    config.pr = pr;
    config.seed = args.seed;
    return harness::make_fan_dumbbell(config);
  }
  if (args.topology == "dumbbell") {
    harness::DumbbellConfig config;
    config.pr_flows = args.pr_flows;
    config.sack_flows = args.sack_flows;
    config.bottleneck_bw_bps = args.bottleneck_mbps * 1e6;
    if (args.link_delay_ms) {
      config.bottleneck_delay = sim::Duration::millis(*args.link_delay_ms);
    }
    config.pr = pr;
    config.seed = args.seed;
    return harness::make_dumbbell(config);
  }
  if (args.topology == "parking-lot") {
    harness::ParkingLotConfig config;
    config.pr_flows = args.pr_flows;
    config.sack_flows = args.sack_flows;
    if (args.link_delay_ms) {
      config.chain_delay = sim::Duration::millis(*args.link_delay_ms);
    }
    config.pr = pr;
    config.seed = args.seed;
    return harness::make_parking_lot(config);
  }
  if (args.topology == "multipath") {
    harness::MultipathConfig config;
    const auto variant = parse_variant(args.variant);
    if (!variant) {
      std::fprintf(stderr, "unknown variant %s\n", args.variant.c_str());
      return nullptr;
    }
    config.variant = *variant;
    config.epsilon = args.epsilon;
    if (args.link_delay_ms) {
      config.link_delay = sim::Duration::millis(*args.link_delay_ms);
    }
    config.pr = pr;
    config.seed = args.seed;
    return harness::make_multipath(config);
  }
  std::fprintf(stderr, "unknown topology %s\n", args.topology.c_str());
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::vector<std::string> errors;
  parse(argc, argv, args, errors);
  // Range checks only make sense on values that parsed.
  if (errors.empty()) errors = check_args(args);
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "tcppr_sim: %s\n", e.c_str());
    }
    std::fputc('\n', stderr);
    usage(stderr);
    return 2;
  }

  if (args.fuzz_seed) {
    auto c = validate::sample_fuzz_case(*args.fuzz_seed);
    c.par_lps = args.par;
    std::printf("fuzz seed %llu: %s\n",
                static_cast<unsigned long long>(*args.fuzz_seed),
                validate::describe(c).c_str());
    const auto r = validate::run_fuzz_case(c);
    std::printf("delivered=%llu hash=%016llx violations=%llu\n",
                static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.delivery_hash),
                static_cast<unsigned long long>(r.violations));
    if (!r.ok) {
      std::printf("first violation: %s\n", r.first_violation.c_str());
      const auto min = validate::minimize_fuzz_case(c);
      std::printf("minimized: %s\n", validate::describe(min).c_str());
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }
  if (args.fuzz_count) {
    const int failures = validate::run_fuzz_campaign(
        args.seed, *args.fuzz_count, args.jobs, /*quiet=*/false,
        args.fuzz_artifacts, args.par);
    std::printf("fuzz: %d/%d seeds clean\n", *args.fuzz_count - failures,
                *args.fuzz_count);
    return failures == 0 ? 0 : 1;
  }

  auto scenario = build(args);
  if (!scenario) return 1;

  std::unique_ptr<trace::FileTrace> trace_file;
  if (!args.trace_path.empty()) {
    trace_file = std::make_unique<trace::FileTrace>(args.trace_path);
    if (!trace_file->ok()) {
      std::fprintf(stderr, "cannot open %s\n", args.trace_path.c_str());
      return 1;
    }
    scenario->network.add_trace_sink(trace_file.get());
  }

  obs::MetricRegistry registry;
  std::unique_ptr<obs::SeriesSink> series_sink;
  if (!args.ts_out.empty()) {
    const bool ndjson = args.ts_out.size() > 7 &&
                        args.ts_out.rfind(".ndjson") == args.ts_out.size() - 7;
    if (ndjson) {
      series_sink = std::make_unique<obs::NdjsonSink>(args.ts_out);
    } else {
      series_sink = std::make_unique<obs::CsvSeriesSink>(args.ts_out);
    }
    if (!series_sink->ok()) {
      std::fprintf(stderr, "cannot open %s\n", args.ts_out.c_str());
      return 1;
    }
    registry.add_sink(series_sink.get());
    if (args.par >= 1) {
      // Per-flow probes schedule on the build scheduler and stay
      // sequential-only; under --par the time-series output instead
      // carries the per-LP engine gauges published with the barrier
      // report after the run.
      std::fprintf(stderr,
                   "tcppr_sim: --par drops the --ts-out flow and queue "
                   "probes; the series holds only the par.* engine gauges\n");
    } else {
      scenario->attach_observability(
          registry, sim::Duration::seconds(args.ts_interval_s));
    }
  }

  std::unique_ptr<validate::InvariantChecker> checker;
  if (args.validate) {
    checker = std::make_unique<validate::InvariantChecker>(*scenario);
  }
  // Reordering telemetry: one tap per link, attached before anything runs.
  // Pure observation — results (and delivery hashes) are byte-identical
  // with or without it. Under --validate the taps also carry the exact
  // per-flow baseline, and every checker sweep becomes a sketch-vs-exact
  // differential check. The baseline is O(flows) per link — at the
  // million-flow scale row it would dwarf the simulation itself, so past
  // 2^16 flows validation keeps the sketch bound checks and drops the
  // exact differential (the checker skips taps without a baseline).
  std::unique_ptr<telemetry::Telemetry> telemetry;
  if (args.telemetry) {
    telemetry::TelemetryConfig tc;
    tc.tap.exact_baseline = args.validate && args.flows <= (1 << 16);
    telemetry = std::make_unique<telemetry::Telemetry>(scenario->network, tc);
    if (checker) checker->set_telemetry(telemetry.get());
  }
  // Parallel harness: built after every component (flows, sinks, checker)
  // but before anything runs — its constructor adopts the scenario's
  // build-time events. Observability probes schedule on the build
  // scheduler and are not supported in parallel mode.
  std::unique_ptr<harness::ParallelSim> psim;
  if (args.par >= 1) {
    harness::ParallelRunConfig pc;
    pc.lps = args.par;
    psim = std::make_unique<harness::ParallelSim>(*scenario, pc);
    if (checker) psim->set_checker(checker.get());
  } else if (checker) {
    checker->start();
  }

  // Dynamic-churn overlay: created after the ParallelSim (like the
  // fuzzer's) so arrival/teardown events land on the shards owning the
  // src/dst hosts; destroyed before psim and the scenario (declaration
  // order below ensures it).
  std::unique_ptr<workload::WorkloadEngine> engine;
  if (!args.workload.empty()) {
    workload::WorkloadConfig wc;
    if (args.workload == "million") {
      // Steady-state concurrency pinned at --flows; sized for the
      // fan-dumbbell plant built above.
      wc = workload::million_workload_config(args.flows);
    } else {
      const auto kind = parse_workload(args.workload);
      if (!kind) {
        std::fprintf(stderr,
                     "unknown workload %s (poisson|web|onoff|million)\n",
                     args.workload.c_str());
        return 1;
      }
      wc.kind = *kind;
      wc.arrival_rate = args.arrival_rate;
    }
    if (args.max_concurrent) wc.max_concurrent = *args.max_concurrent;
    if (args.id_slots) wc.id_slots = *args.id_slots;
    wc.seed = args.seed ^ 0xC4u;
    engine = std::make_unique<workload::WorkloadEngine>(*scenario, wc,
                                                        psim.get());
    // Both hooks run on the thread that retires a flow, which under --par
    // is a shard thread; the registry and the taps are not shared-safe.
    if (series_sink && psim) {
      std::fprintf(stderr, "tcppr_sim: --par drops the workload's metric "
                           "registry; --ts-out holds no workload series\n");
    } else if (series_sink) {
      registry.set_aggregate_only(true);  // churn scale: no per-flow labels
      engine->set_metric_registry(registry);
    }
    if (telemetry && psim) {
      std::fprintf(stderr, "tcppr_sim: --par drops the workload's telemetry "
                           "retire; departed flows stay in the link taps "
                           "until displaced\n");
    } else if (telemetry) {
      engine->set_telemetry(telemetry.get());
    }
    engine->start();
  }

  harness::MeasurementWindow window;
  window.total = sim::Duration::seconds(args.duration_s);
  window.measured = sim::Duration::seconds(measured_seconds(args));
  const auto result = run_scenario(*scenario, window, psim.get());
  if (engine) engine->stop();
  if (checker) checker->finalize();

  std::printf("topology=%s duration=%.0fs measured=%.0fs seed=%llu\n",
              args.topology.c_str(), args.duration_s, measured_seconds(args),
              static_cast<unsigned long long>(args.seed));
  if (psim) {
    std::printf("parallel: %d LPs (%d requested), %llu windows, "
                "%llu cross-LP packets\n",
                psim->lp_count(), args.par,
                static_cast<unsigned long long>(psim->windows()),
                static_cast<unsigned long long>(psim->exchanged()));
    // Per-LP report: work (non-carrier events + pump ops), its share of
    // the busiest LP's, and the cross-LP traffic sourced at each LP.
    const auto reports = psim->lp_reports();
    std::printf("  %-4s %12s %6s %12s\n", "lp", "ops", "util",
                "cross-LP");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto& r = reports[i];
      std::printf("  %-4zu %12llu %5.1f%% %12llu\n", i,
                  static_cast<unsigned long long>(r.ops),
                  100.0 * r.utilization,
                  static_cast<unsigned long long>(r.cross_pushed));
    }
    if (series_sink) {
      psim->publish_metrics(registry,
                            sim::TimePoint::from_seconds(args.duration_s));
    }
  }
  const auto norm = result.normalized();
  if (result.flows.size() <= 32) {
    std::printf("%-4s %-9s %12s %12s %8s %6s %6s %6s\n", "flow", "variant",
                "thr (kbps)", "goodput", "rtx", "spur", "to", "halv");
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
      const auto& f = result.flows[i];
      std::printf("%-4d %-9s %12.0f %12.0f %8llu %6llu %6llu %6llu\n",
                  static_cast<int>(f.flow), to_string(f.variant),
                  f.throughput_bps / 1e3, f.goodput_bps / 1e3,
                  static_cast<unsigned long long>(f.sender.retransmissions),
                  static_cast<unsigned long long>(
                      f.sender.spurious_retransmits_detected),
                  static_cast<unsigned long long>(f.sender.timeouts),
                  static_cast<unsigned long long>(f.sender.cwnd_halvings));
    }
  } else {
    // Per-flow tables are unreadable at many-flows scale; print per-variant
    // aggregates instead.
    std::printf("%-9s %6s %14s %14s %10s %8s\n", "variant", "flows",
                "mean thr", "total thr", "rtx", "to");
    for (const TcpVariant v : harness::all_variants()) {
      double total_bps = 0;
      std::uint64_t rtx = 0, to = 0;
      int n = 0;
      for (const auto& f : result.flows) {
        if (f.variant != v) continue;
        ++n;
        total_bps += f.throughput_bps;
        rtx += f.sender.retransmissions;
        to += f.sender.timeouts;
      }
      if (n == 0) continue;
      std::printf("%-9s %6d %12.0f k %12.0f k %10llu %8llu\n", to_string(v), n,
                  total_bps / n / 1e3, total_bps / 1e3,
                  static_cast<unsigned long long>(rtx),
                  static_cast<unsigned long long>(to));
    }
  }
  // Scheduler events and pump ops side by side: the pump executes most
  // packet ops inside a few carrier events, so the event count alone says
  // little about the work done.
  const net::LinkPump::Stats pump_stats =
      psim ? psim->pump_stats() : scenario->network.pump()->stats();
  std::printf("\nloss rate %.2f%%, %llu scheduler events, %llu pump ops\n",
              100.0 * result.loss_rate,
              static_cast<unsigned long long>(result.events),
              static_cast<unsigned long long>(pump_stats.ops));
  // Engine aggregates: events per delivered packet (the pump drives this
  // below 1) and pump ops per carrier event.
  const auto snap = scenario->network.conservation();
  const double epp =
      snap.delivered_to_agent > 0
          ? static_cast<double>(result.events) /
                static_cast<double>(snap.delivered_to_agent)
          : 0.0;
  std::printf("engine: %.3f events/packet", epp);
  if (pump_stats.events > 0) {
    std::printf(", %llu carrier events (%.2f pump ops/event)",
                static_cast<unsigned long long>(pump_stats.events),
                static_cast<double>(pump_stats.ops) /
                    static_cast<double>(pump_stats.events));
  }
  std::printf("\n");
  if (engine) {
    const auto ws = engine->stats();
    std::printf(
        "workload: %s at %g/s — arrivals=%llu completed=%llu rejected=%llu "
        "active=%zu peak=%zu\n",
        args.workload.c_str(), args.arrival_rate,
        static_cast<unsigned long long>(ws.arrivals),
        static_cast<unsigned long long>(ws.completed),
        static_cast<unsigned long long>(ws.rejected), ws.active,
        ws.peak_active);
    std::printf(
        "  receivers: created=%llu closed=%llu reaped=%llu resumed=%llu "
        "stray=%llu live=%zu\n",
        static_cast<unsigned long long>(ws.receivers_created),
        static_cast<unsigned long long>(ws.receivers_closed),
        static_cast<unsigned long long>(ws.receivers_reaped),
        static_cast<unsigned long long>(ws.receivers_resumed),
        static_cast<unsigned long long>(ws.stray_packets),
        engine->live_receivers());
    const auto rs = engine->reorder_stats();
    std::printf(
        "  mean completion %.3fs, slab %zu bytes over %zu slots, "
        "reordered %.2f%% of %llu arrivals\n",
        ws.mean_completion_s(), engine->slab_bytes(), engine->slots_in_use(),
        100.0 * rs.reordered_fraction(),
        static_cast<unsigned long long>(rs.total()));
  }
  if (telemetry) {
    std::printf("\n");
    telemetry->print_summary(stdout);
    if (series_sink) {
      telemetry->publish(registry,
                         sim::TimePoint::from_seconds(args.duration_s));
    }
  }
  if (result.flows.size() > 1) {
    std::printf("mean normalized: tcp-pr %.3f, sack %.3f; CoV %.3f / %.3f\n",
                result.mean_normalized(TcpVariant::kTcpPr),
                result.mean_normalized(TcpVariant::kSack),
                result.cov(TcpVariant::kTcpPr),
                result.cov(TcpVariant::kSack));
  }
  if (trace_file) {
    trace_file->flush();
    std::printf("trace written to %s\n", args.trace_path.c_str());
  }
  if (series_sink) {
    series_sink->flush();
    std::printf("time series written to %s (%llu samples)\n",
                args.ts_out.c_str(),
                static_cast<unsigned long long>(registry.samples_recorded()));
  }
  if (checker) {
    std::printf("validation: %llu sweeps, %llu violations\n",
                static_cast<unsigned long long>(checker->sweeps()),
                static_cast<unsigned long long>(checker->total_violations()));
    if (!checker->ok()) {
      std::fputs(checker->report().c_str(), stderr);
      return 1;
    }
  }
  if (args.expect_concurrent > 0) {
    if (engine == nullptr) {
      std::fprintf(stderr,
                   "--expect-concurrent requires a --workload overlay\n");
      return 1;
    }
    const std::size_t peak = engine->stats().peak_active;
    if (peak < args.expect_concurrent) {
      std::fprintf(stderr,
                   "FAIL: peak concurrency %zu below expected %zu\n", peak,
                   args.expect_concurrent);
      return 1;
    }
    std::printf("peak concurrency %zu >= expected %zu\n", peak,
                args.expect_concurrent);
  }
  return 0;
}
