// InvariantChecker: continuous whole-simulation correctness monitor.
//
// Attached to a built harness::Scenario, the checker sweeps the simulation
// state on a scheduler timer and asserts, between events:
//
//   network    packet conservation — every packet ever originated is
//              delivered, dropped (queue / loss model / unroutable), or
//              still in flight (queued or in a transmitter), at all times
//              and at teardown — and pool occupancy: the packet pools'
//              live slots are exactly the queued and on-link packets;
//   senders    the per-variant state-machine invariants exported through
//              tcp::SenderInvariantView (cwnd >= 1, ssthresh above the
//              variant's floor, snd_una <= snd_nxt, window bookkeeping
//              complete, RTO inside [min_rto, max_rto], retransmit timer
//              armed when data is outstanding, scoreboard consistency);
//   receivers  cumulative ACK monotonicity, SACK block structure (disjoint
//              and above the cumulative ACK point), and the end-to-end
//              payload checksum: the bytes entering the in-order stream
//              are exactly the deterministic payload of segments 0..n in
//              order (tcp::Receiver's FNV-1a fold vs an independently
//              computed expectation);
//   TCP-PR     mxrtt >= ewrtt (the detection envelope never dips below the
//              estimate it multiplies) and the drop-declaration deadline
//              oracle (no drop declared before sent_at + mxrtt).
//
// Checking is opt-in. Nothing here is constructed in an unvalidated run,
// and the hooks the checker relies on (receiver delivery hash, TCP-PR
// deadline oracle) cost one predictable branch each when disabled — the
// same contract as src/obs, verified against BENCH_engine.json.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/scenarios.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::core {
class TcpPrSender;
}

namespace tcppr::telemetry {
class Telemetry;
}

namespace tcppr::validate {

struct Violation {
  sim::TimePoint time;
  std::string what;
};

class InvariantChecker {
 public:
  struct Config {
    sim::Duration sweep_interval = sim::Duration::millis(50);
    // Violations kept verbatim; past the cap only the count grows.
    std::size_t max_violations = 32;
  };

  // Registers every endpoint of `scenario` (measured and cross-traffic)
  // and arms their validation hooks. Construct after the scenario is
  // built (flows added) and before the simulation runs; the checker must
  // outlive the run.
  InvariantChecker(harness::Scenario& scenario, Config config);
  explicit InvariantChecker(harness::Scenario& scenario)
      : InvariantChecker(scenario, Config()) {}

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Begins periodic sweeps (immediately, then every sweep_interval).
  void start();
  // Cancels the sweep timer and runs the teardown sweep. Call after the
  // simulation has finished; ok()/report() are complete afterwards.
  void finalize();
  // One immediate sweep without touching the periodic schedule. Safe to
  // call between events at any time. This is the parallel-mode entry
  // point: do not start() there (the periodic timer lives on the idle
  // build-time scheduler); ParallelSim calls check_now() at every
  // barrier, where all shards are parked and state is coherent.
  void check_now();

  // Parallel mode: packets riding a cut-link mailbox are in no pool and on
  // no link, so the network's conservation snapshot cannot see them. The
  // provider reports that count so conservation balances at barriers
  // (ParallelSim::external_in_flight).
  void set_external_in_flight(std::function<std::uint64_t()> provider) {
    external_in_flight_ = std::move(provider);
  }

  // Telemetry surface: every sweep asserts, per tap, the sketches' declared
  // error bounds against the exact baseline (sketch never over-reports
  // reordering; exact when collision-free; count-min estimates bracketed),
  // monotone tap counters across sweeps, exactly-once folding arithmetic,
  // and — when the exact baseline is on — data_packets agreement and the
  // completeness implication max_buffer_occupancy <= max_extent. Attach
  // before the run; the telemetry must outlive the checker's last sweep.
  void set_telemetry(telemetry::Telemetry* telemetry);

  bool ok() const { return total_violations_ == 0; }
  std::uint64_t total_violations() const { return total_violations_; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t sweeps() const { return sweeps_; }
  // One line per recorded violation ("t=<seconds> <what>").
  std::string report() const;

 private:
  struct SenderState {
    const tcp::SenderBase* sender = nullptr;
    const core::TcpPrSender* pr = nullptr;  // non-null for TCP-PR flows
    net::FlowId flow = net::kInvalidFlow;
  };
  struct ReceiverState {
    tcp::Receiver* receiver = nullptr;
    net::FlowId flow = net::kInvalidFlow;
    tcp::SeqNo last_rcv_next = 0;
    // Incremental expectation for the receiver's delivery hash: segments
    // [0, hashed_to) folded so far, starting from the receiver's state at
    // attach time.
    tcp::SeqNo hashed_to = 0;
    std::uint64_t expected_hash = 0;
  };

  void register_sender(const tcp::SenderBase* sender);
  void register_receiver(tcp::Receiver* receiver);
  void sweep();
  void check_conservation();
  void check_sender(const SenderState& s);
  void check_receiver(ReceiverState& r);
  void check_telemetry();
  void add_violation(std::string what);

  harness::Scenario& scenario_;
  Config config_;
  std::vector<SenderState> senders_;
  std::vector<ReceiverState> receivers_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t sweeps_ = 0;
  bool finalized_ = false;
  std::function<std::uint64_t()> external_in_flight_;
  telemetry::Telemetry* telemetry_ = nullptr;
  // Per-tap monotonicity snapshots from the previous sweep:
  // {data_packets, reordered, displacement_sum, folded_flows}.
  struct TapSnapshot {
    std::uint64_t data_packets = 0;
    std::uint64_t reordered = 0;
    std::uint64_t displacement_sum = 0;
    std::uint64_t folded_flows = 0;
  };
  std::vector<TapSnapshot> tap_prev_;
  sim::Timer timer_;
};

}  // namespace tcppr::validate
