// ScenarioFuzzer: randomized scenario generation driven by a single seed,
// executed under the InvariantChecker.
//
// One seed deterministically selects a topology (the paper's dumbbell /
// parking-lot / multi-path plus a small random graph), a variant mix over
// all twelve senders, a run length, and a set of fault processes
// (Bernoulli loss, delivery jitter, LinkFlapper outages, a mid-run
// bandwidth/delay reconfiguration). The space of adversarial reorder/loss
// interleavings is far larger than the hand-built figure scenarios cover;
// the fuzzer samples it.
//
// On failure the campaign prints a one-line reproducer
// (`tcppr_sim --fuzz-seed N` plus the sampled config) and a greedily
// minimized variant of the case that still fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenarios.hpp"

namespace tcppr::validate {

struct FuzzCase {
  enum class Topology { kDumbbell, kParkingLot, kMultipath, kRandomGraph };

  std::uint64_t seed = 1;
  Topology topology = Topology::kDumbbell;
  int flows = 1;  // measured flows (always 1 on the multipath mesh)
  std::vector<harness::TcpVariant> variants;  // size == flows
  double duration_s = 5.0;
  bool cross_traffic = false;  // parking-lot only
  // Fault processes (0 / false = disabled).
  double loss_rate = 0;
  double jitter_ms = 0;
  bool flap = false;
  double flap_mean_up_s = 1.0;
  double flap_mean_down_s = 0.2;
  bool reconfigure_mid_run = false;  // halve bw / double delay at T/2
  // Topology knobs.
  double epsilon = 0;   // multipath randomization (paper sweep values)
  int graph_nodes = 6;  // random graph only (ring + chords)
  // Background flow churn: a small WorkloadEngine (src/workload) spraying
  // short dynamic transfers between the scenario's src/dst hosts while the
  // measured flows run. 0 = disabled. Sampled AFTER every other knob so
  // adding the dimension did not re-shuffle the cases seeds 1..N produced
  // before it existed. churn_kind indexes workload::WorkloadKind
  // (0=poisson, 1=web, 2=onoff; kept as int so this header does not pull
  // in the workload layer).
  double churn_rate = 0;  // mean dynamic-flow arrivals per second
  int churn_kind = 0;
  // Link-tap reordering telemetry (src/telemetry) with the exact per-flow
  // baseline enabled, checked against the sketches every sweep. Sampled
  // AFTER churn (the seed-prefix rule above: seeds 1..N still expand to
  // the cases they produced before this dimension existed).
  bool telemetry = false;
  // Logical processes for the parallel engine. 0 = legacy sequential run
  // on the build scheduler; 1 = canonical stamped run on a single shard;
  // >= 2 = threaded. Never sampled (any LP count >= 1 must produce the
  // identical trajectory); set explicitly by the
  // parallel-equivalence tests and --par. The realized LP count may be
  // lower when the partitioner finds no positive-lookahead cut.
  int par_lps = 0;
  // Batched hot path (net::set_hot_path_batching), sampled at Network
  // construction. Never sampled (like `par_lps`: the batched and
  // unbatched engines must produce the identical trajectory); set
  // explicitly by the batch-equivalence tests and --no-batch.
  bool batching = true;

  // Mutation knobs for the checker's self-test. Never sampled by the
  // fuzzer; set explicitly by tests/validate_selftest.cpp.
  bool corrupt_transit_for_test = false;
  bool corrupt_delivery_for_test = false;
  bool corrupt_telemetry_for_test = false;  // requires telemetry = true
};

const char* to_string(FuzzCase::Topology topology);

// Deterministically expands a seed into a case (sample_fuzz_case(n) is a
// pure function of n).
FuzzCase sample_fuzz_case(std::uint64_t seed);

struct FuzzResult {
  bool ok = false;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::uint64_t delivered = 0;      // packets delivered to agents
  std::uint64_t delivery_hash = 0;  // determinism oracle over the run
  // Trajectory fingerprint beside the hash (tests/golden_trajectory_test):
  // packets originated, queue drops, and the static senders' retransmits.
  std::uint64_t originated = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t retransmissions = 0;
};

// Builds the scenario described by `c`, runs it under an InvariantChecker
// for c.duration_s of simulated time, and reports the outcome.
FuzzResult run_fuzz_case(const FuzzCase& c);

// One-line reproducer configuration (appended to "--fuzz-seed N").
std::string describe(const FuzzCase& c);

// Greedy config minimizer: tries removing fault processes, shrinking the
// flow set and duration, and simplifying the topology while the case
// still fails; at most `max_runs` re-executions.
FuzzCase minimize_fuzz_case(const FuzzCase& failing, int max_runs = 40);

// Runs seeds [first_seed, first_seed + count) across `jobs` threads.
// Prints one reproducer line per failing seed (plus its minimized form)
// through std::fprintf(stderr, ...) and returns the number of failures.
// When `artifact_dir` is non-empty it is created if needed and every
// failing seed writes `fuzz-fail-<seed>.txt` there: the reproducer
// command, the sampled config, the first violation, and (unless quiet)
// the minimized config. CI uploads the directory so a red fuzz job
// carries its own repro.
// Every sampled case runs on `par_lps` logical processes (the sampler
// itself never varies it — see the FuzzCase field).
int run_fuzz_campaign(std::uint64_t first_seed, int count, int jobs,
                      bool quiet = false, const std::string& artifact_dir = "",
                      int par_lps = 0);

}  // namespace tcppr::validate
