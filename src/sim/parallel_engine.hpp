// Parallel execution of one simulation across scheduler shards: classic
// conservative PDES with link-delay lookahead and barrier-synchronized
// windows. This is the only parallel engine mode.
//
// The engine owns nothing about the network; it coordinates a set of
// Scheduler shards (one per logical process) plus the cut-edge metadata
// that bounds how far each shard may safely run. Each iteration:
//
//   1. Safe horizon  H = min over cut edges (the source shard's earliest
//      work + edge lookahead). Lookahead is the cut link's propagation
//      delay: a packet leaving the source shard at time u cannot arrive
//      before u + lookahead, so every shard may execute all events
//      strictly before H without missing a cross-shard arrival. A shard's
//      earliest work is its earliest pending event or the earliest arrival
//      handed to it and not yet drained, whichever is sooner.
//   2. Window: every shard first drains the arrivals handed to it, on its
//      own thread, then runs run_until_before(H), concurrently on a
//      persistent worker pool (the coordinator runs shard 0 itself).
//   3. Barrier: workers park; the coordinator hands each mailbox filled
//      during the window to its destination LP through the caller's
//      exchange hook (an O(1) buffer swap), then runs the at_barrier hook
//      (trace flushes, invariant sweeps).
//
// Windows are exclusive (time < H) so all events at exactly H — local and
// freshly injected — execute together in the next window, ordered by their
// stamps; see Scheduler::enable_seq_stamping for why stamp order equals
// the sequential run's tie-break order. The final stretch at the end time
// runs inclusively and loops exchange until no work at or before the end
// remains anywhere; then the coordinator drains what is left, so every
// pushed packet sits in its destination shard when run_until returns.
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
    // Hands every cross-shard mailbox filled during the window to its
    // destination shard and lowers inbox[lp] to the earliest arrival handed
    // to shard lp. Runs on the coordinator with all workers parked.
    // Returns the number of packets handed over.
    std::function<std::uint64_t(std::vector<TimePoint>& inbox)> exchange;
    // Moves the arrivals handed to shard `lp` into it. Runs on the thread
    // that runs the shard's window, before the window.
    std::function<void(std::size_t lp)> drain;
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
  void barrier(TimePoint h);

  std::vector<Scheduler*> shards_;
  std::vector<CutEdge> cuts_;
  Hooks hooks_;
  // Per shard: earliest arrival handed over at the last barrier and not
  // yet drained (TimePoint::max() when none).
  std::vector<TimePoint> inbox_;
  std::uint64_t windows_ = 0;
  std::uint64_t exchanged_ = 0;
};

}  // namespace tcppr::sim
