// Parallel execution of one simulation across scheduler shards: classic
// conservative PDES with link-delay lookahead and barrier-synchronized
// windows. This is the only parallel engine mode.
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
//
// Windows are exclusive (time < H) so all events at exactly H — local and
// freshly injected — execute together in the next window, ordered by their
// stamps; see Scheduler::enable_seq_stamping for why stamp order equals
// the sequential run's tie-break order. The final stretch at the end time
// runs inclusively and loops exchange until no work at or before the end
// remains anywhere.
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

  struct Hooks {
    // Drains every cross-shard mailbox into the target shards and merges
    // buffered trace records downstream. Runs on the coordinator with all
    // workers parked. Returns the number of events injected.
    std::function<std::uint64_t()> exchange;
    // Optional: runs after each exchange (invariant sweeps at barriers).
    std::function<void(TimePoint)> at_barrier;
  };

  // Shards are borrowed; they must outlive the engine. Every cut edge's
  // lookahead must be positive — a zero-lookahead cut cannot make
  // progress (the partitioner falls back to fewer LPs instead).
  ParallelEngine(std::vector<Scheduler*> shards, std::vector<CutEdge> cuts,
                 Hooks hooks);

  // Runs every shard to `end` (inclusive, like Scheduler::run_until).
  void run_until(TimePoint end);

  std::uint64_t windows() const { return windows_; }
  std::uint64_t exchanged() const { return exchanged_; }

 private:
  // Smallest safe horizon implied by the cut edges, or TimePoint::max()
  // when no shard can send anything (all source shards idle).
  TimePoint safe_horizon();

  std::vector<Scheduler*> shards_;
  std::vector<CutEdge> cuts_;
  Hooks hooks_;
  std::uint64_t windows_ = 0;
  std::uint64_t exchanged_ = 0;
};

}  // namespace tcppr::sim
