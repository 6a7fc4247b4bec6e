// Parallel execution of one simulation across scheduler shards: classic
// conservative PDES with link-delay lookahead, optionally extended with
// bounded-optimism speculation (Time-Warp-lite).
//
// The engine owns nothing about the network; it coordinates a set of
// Scheduler shards (one per logical process) plus the cut-edge metadata
// that bounds how far each shard may safely run. Each iteration:
//
//   1. Safe horizon  H = min over cut edges (source shard's earliest
//      pending event + edge lookahead). Lookahead is the cut link's
//      propagation delay: a packet leaving the source shard at time u
//      cannot arrive before u + lookahead, so every shard may execute all
//      events strictly before H without missing a cross-shard arrival.
//   2. Window: every shard runs run_until_before(H) concurrently on a
//      persistent worker pool (the coordinator runs shard 0 itself).
//   3. Barrier: workers park; the coordinator drains the cross-shard
//      mailboxes and flushes buffered trace records through the caller's
//      exchange hook, then runs the at_barrier hook (invariant sweeps).
//   4. (optimistic) If every shard's pending set is replay-safe, the
//      coordinator snapshots all LPs and the pool runs a *speculative*
//      window to min(H + W, end]: each shard executes past the horizon
//      against its snapshot. The settle hook then computes, single-
//      threaded, which LPs saw a straggler (a cross-LP message at or
//      below their executed frontier), rolls exactly those back to the
//      snapshot, and commits the rest. W halves on any rollback and
//      creeps up additively on clean windows.
//
// Windows are exclusive (time < H) so all events at exactly H — local and
// freshly injected — execute together in the next window, ordered by their
// stamps; see Scheduler::enable_seq_stamping for why stamp order equals
// the sequential run's tie-break order. The final stretch at the end time
// runs inclusively (and without speculation) and loops exchange until no
// work at or before the end remains anywhere.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tcppr::sim {

class ParallelEngine {
 public:
  struct CutEdge {
    int src_lp = 0;
    Duration lookahead = Duration::zero();  // must be > 0
  };

  // Bounded-optimism policy. W is the speculation depth past the safe
  // horizon; it adapts multiplicative-decrease / additive-increase on the
  // rollback signal, clamped to [w_min, w_max].
  struct EngineConfig {
    bool optimistic = false;
    Duration w_init = Duration::micros(200);
    Duration w_min = Duration::micros(25);
    Duration w_max = Duration::millis(8);
    Duration w_step = Duration::micros(100);
  };

  struct Hooks {
    // Drains every cross-shard mailbox into the target shards and merges
    // buffered trace records downstream. Runs on the coordinator with all
    // workers parked. Returns the number of events injected.
    std::function<std::uint64_t()> exchange;
    // Optional: runs after each exchange (invariant sweeps at barriers).
    std::function<void(TimePoint)> at_barrier;
    // Optimistic mode (all three required for speculation to engage):
    // gate — false when any shard holds a non-replay-safe pending event
    // or the harness has a reason to sit the window out.
    std::function<bool()> can_speculate;
    // Capture LP `lp`'s full rollback state. Coordinator-only, serial.
    std::function<void(int)> snapshot;
    // Resolve one speculative window: given the horizon, the bound and
    // each shard's speculative execution result, find the straggler-hit
    // LPs (transitively), restore them from snapshot, retract their
    // unsent messages and deliver the valid ones. Returns the number of
    // LPs rolled back. Coordinator-only.
    std::function<int(TimePoint h, TimePoint bound,
                      const std::vector<Scheduler::SpecResult>&)>
        settle;
  };

  // Shards are borrowed; they must outlive the engine. Every cut edge's
  // lookahead must be positive — a zero-lookahead cut cannot make
  // progress (the partitioner falls back to fewer LPs instead).
  ParallelEngine(std::vector<Scheduler*> shards, std::vector<CutEdge> cuts,
                 Hooks hooks, EngineConfig config);
  // Default (conservative) policy. A separate overload rather than a
  // defaulted argument: the nested config's member initializers are not
  // parsed yet at this point of the enclosing class.
  ParallelEngine(std::vector<Scheduler*> shards, std::vector<CutEdge> cuts,
                 Hooks hooks);

  // Runs every shard to `end` (inclusive, like Scheduler::run_until).
  void run_until(TimePoint end);

  std::uint64_t windows() const { return windows_; }
  std::uint64_t exchanged() const { return exchanged_; }
  // Optimism telemetry: speculative windows attempted, windows that saw
  // at least one rollback, total LP rollbacks, current speculation depth.
  std::uint64_t spec_windows() const { return spec_windows_; }
  std::uint64_t rollback_windows() const { return rollback_windows_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  Duration current_w() const { return w_; }

 private:
  // Smallest safe horizon implied by the cut edges, or TimePoint::max()
  // when no shard can send anything (all source shards idle).
  TimePoint safe_horizon();

  std::vector<Scheduler*> shards_;
  std::vector<CutEdge> cuts_;
  Hooks hooks_;
  EngineConfig config_;
  Duration w_ = Duration::zero();
  std::vector<Scheduler::SpecResult> spec_results_;
  std::uint64_t windows_ = 0;
  std::uint64_t exchanged_ = 0;
  std::uint64_t spec_windows_ = 0;
  std::uint64_t rollback_windows_ = 0;
  std::uint64_t rollbacks_ = 0;
};

}  // namespace tcppr::sim
