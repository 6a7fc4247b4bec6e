// The benchmark's workloads and the one routine that builds, runs and
// measures a workload in the current process.
//
// Three kinds of run share that routine:
//   - timed:  no trace sink and no proxies; the end-to-end numbers.
//   - check:  a DeliveryHasher on the network's tracer; the reference the
//             timed runs' fingerprints must match.
//   - traced: timing proxies re-attached through public calls (see
//             layer_clock.hpp) and run_until called in simulated slices so
//             scheduler counters can be sampled between them; the
//             per-layer numbers.
// Every run warms up untimed to warm_s, then times `windows` consecutive
// windows of window_s simulated seconds each; counts and per-packet
// figures cover all the windows together.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  double warm_s = 0;    // simulated seconds run untimed first
  double window_s = 0;  // simulated seconds per timed window
  int windows = 0;
  int lps = 0;  // 0: the sequential scheduler; >= 1: ParallelSim
};

const std::vector<WorkloadSpec>& all_workloads();
// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(std::string_view name);

// A run with neither option is a timed run: it also sets up (and tears
// down, unrun) extra plants before the one that runs, and its set-up times
// are medians over all of them.
struct RunOptions {
  bool hash = false;   // attach a DeliveryHasher
  bool trace = false;  // timing proxies + sliced run
};

// Counts that identify a run's trajectory. Two runs of one workload and
// seed must agree on every field; a difference is nondeterminism or a
// perturbation, never noise.
struct Fingerprint {
  std::uint64_t delivered = 0;  // Network::conservation().delivered_to_agent
  std::uint64_t originated = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t retransmissions = 0;  // over the scenario's static senders
  std::uint64_t completed = 0;        // WorkloadStats::completed
};

struct RunResult {
  Fingerprint fp;          // at the end of the last window
  std::uint64_t hash = 0;  // DeliveryHasher digest (RunOptions::hash only)
  // Counts over the timed windows.
  std::uint64_t pkts = 0;  // packets delivered to agents
  std::uint64_t events = 0;
  std::uint64_t pump_ops = 0;
  std::uint64_t flows = 0;  // flow lifecycles completed (WorkloadStats)
  // Set-up phases, wall seconds: scenario builder, ParallelSim
  // construction, WorkloadEngine construction and start.
  double build_s = 0;
  double partition_s = 0;
  double start_s = 0;
  double setup_s = 0;  // median of the three phases' sum
  // Timed runs: the median set-up over the reference kernel's time next to
  // it (host_speed.hpp).
  double setup_per_ref = 0;
  double run_s = 0;    // the windows' run_until calls only
  std::vector<double> window_run_s;  // per window, wall seconds
  // Per window, the mean of the reference kernel's times just before and
  // just after it (host_speed.hpp).
  std::vector<double> window_ref_s;
  // Per-layer metrics by name (RunOptions::trace only).
  std::map<std::string, double> layers;
};

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       const RunOptions& options);

}  // namespace perfbench
