#include "sim/parallel_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace tcppr::sim {

ParallelEngine::ParallelEngine(std::vector<Scheduler*> shards,
                               std::vector<CutEdge> cuts, Hooks hooks)
    : shards_(std::move(shards)),
      cuts_(std::move(cuts)),
      hooks_(std::move(hooks)) {
  TCPPR_CHECK(!shards_.empty());
  for (const CutEdge& c : cuts_) {
    TCPPR_CHECK(c.src_lp >= 0 &&
                c.src_lp < static_cast<int>(shards_.size()));
    TCPPR_CHECK(c.lookahead > Duration::zero());
  }
}

TimePoint ParallelEngine::safe_horizon() {
  TimePoint h = TimePoint::max();
  for (const CutEdge& c : cuts_) {
    // An idle source shard imposes no bound: anything it ever sends is
    // caused by an arrival, which itself cannot land before the horizon
    // the other edges imply. Arrivals handed over but not yet drained are
    // the shard's work too.
    const auto src = static_cast<std::size_t>(c.src_lp);
    TimePoint next = inbox_[src];
    const auto d = shards_[src]->next_deadline();
    if (d && *d < next) next = *d;
    if (next == TimePoint::max()) continue;
    const TimePoint bound = next + c.lookahead;
    if (bound < h) h = bound;
  }
  return h;
}

void ParallelEngine::barrier(TimePoint h) {
  std::fill(inbox_.begin(), inbox_.end(), TimePoint::max());
  exchanged_ += hooks_.exchange(inbox_);
  if (hooks_.at_barrier) hooks_.at_barrier(h);
}

void ParallelEngine::run_until(TimePoint end) {
  const std::size_t n = shards_.size();
  if (n == 1 || cuts_.empty()) {
    // Single LP (or no coupling at all): plain sequential execution on
    // each shard — the degenerate but still byte-identical mode.
    for (Scheduler* s : shards_) s->run_until(end);
    if (hooks_.at_barrier) hooks_.at_barrier(end);
    return;
  }
  inbox_.assign(n, TimePoint::max());

  // Persistent worker pool: worker i runs shard i+1; the coordinator runs
  // shard 0 and all barrier-phase work. A generation-counted condition
  // barrier keeps workers parked (not spinning) between windows, which
  // also keeps the mode usable on machines with fewer cores than LPs.
  std::mutex m;
  std::condition_variable cv_start, cv_done;
  std::uint64_t gen = 0;
  std::size_t running = 0;
  bool quit = false;
  const std::function<void(std::size_t)>* job = nullptr;

  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers.emplace_back([&, i] {
      std::uint64_t seen = 0;
      for (;;) {
        const std::function<void(std::size_t)>* my_job = nullptr;
        {
          std::unique_lock<std::mutex> lk(m);
          cv_start.wait(lk, [&] { return quit || gen != seen; });
          if (quit) return;
          seen = gen;
          my_job = job;
        }
        (*my_job)(i);
        {
          std::lock_guard<std::mutex> lk(m);
          if (--running == 0) cv_done.notify_one();
        }
      }
    });
  }

  const auto run_window = [&](const std::function<void(std::size_t)>& fn) {
    {
      std::lock_guard<std::mutex> lk(m);
      job = &fn;
      running = n - 1;
      ++gen;
    }
    cv_start.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lk(m);
    cv_done.wait(lk, [&] { return running == 0; });
  };

  // Safe windows strictly before the horizon.
  for (;;) {
    const TimePoint h = safe_horizon();
    if (h > end) break;
    ++windows_;
    const std::function<void(std::size_t)> window = [&, h](std::size_t i) {
      hooks_.drain(i);
      shards_[i]->run_until_before(h);
    };
    run_window(window);
    barrier(h);
  }

  // Final stretch: inclusive at `end`, repeated until no shard holds work
  // at or before `end`, drained or not (a window can inject events that
  // land exactly at the end time; effects of same-time events cannot
  // propagate past the end, so multi-pass execution here cannot reorder
  // anything observable — the barrier merge still emits trace records in
  // stamp order).
  for (;;) {
    ++windows_;
    const std::function<void(std::size_t)> window = [&, end](std::size_t i) {
      hooks_.drain(i);
      shards_[i]->run_until(end);
    };
    run_window(window);
    barrier(end);
    bool more = false;
    for (std::size_t i = 0; i < n && !more; ++i) {
      const auto d = shards_[i]->next_deadline();
      more = inbox_[i] <= end || (d && *d <= end);
    }
    if (!more) break;
  }

  {
    std::lock_guard<std::mutex> lk(m);
    quit = true;
  }
  cv_start.notify_all();
  for (std::thread& t : workers) t.join();
  // Arrivals past `end` wait in their destination shards: with the workers
  // gone the coordinator writes them into every shard itself.
  for (std::size_t i = 0; i < n; ++i) hooks_.drain(i);
}

}  // namespace tcppr::sim
