// Tests for the scheduler's pending-event set (HeapQueue): the sorted-run
// and heap representations and the switches between them, FIFO
// tie-breaking, growth, far-future keys, and a randomized check against a
// sorted reference that includes retain(), the scheduler's purge.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace tcppr::sim {
namespace {

QueuedEvent ev(double seconds, std::uint64_t seq) {
  return QueuedEvent{TimePoint::from_seconds(seconds), seq, seq + 1};
}

TEST(HeapQueue, PopsInTimeOrder) {
  HeapQueue q;
  q.push(ev(3.0, 1));
  q.push(ev(1.0, 2));
  q.push(ev(2.0, 3));
  EXPECT_EQ(q.pop_min()->seq, 2u);
  EXPECT_EQ(q.pop_min()->seq, 3u);
  EXPECT_EQ(q.pop_min()->seq, 1u);
  EXPECT_FALSE(q.pop_min().has_value());
}

TEST(HeapQueue, TiesBreakByInsertionSeq) {
  // Descending seqs at one time leave the sorted run at the second push,
  // so the FIFO tie-break is the heap's comparison, not append order.
  HeapQueue q;
  for (std::uint64_t i = 10; i > 0; --i) q.push(ev(1.0, i));
  EXPECT_FALSE(q.in_sorted_run());
  for (std::uint64_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(q.pop_min()->seq, i);
  }
}

TEST(HeapQueue, MonotonePushesStayInSortedRun) {
  // Nondecreasing (time, seq) pushes keep the array a flat sorted run —
  // the O(1) append fast path — and pops stream from the front without
  // leaving the mode.
  HeapQueue q;
  EXPECT_TRUE(q.in_sorted_run());
  for (int i = 0; i < 100; ++i) q.push(ev(i * 0.001, static_cast<std::uint64_t>(i)));
  EXPECT_TRUE(q.in_sorted_run());
  q.push(ev(0.099, 200));  // equal time, later seq: still in order
  EXPECT_TRUE(q.in_sorted_run());
  EXPECT_EQ(q.pop_min()->seq, 0u);
  EXPECT_EQ(q.pop_min()->seq, 1u);
  EXPECT_TRUE(q.in_sorted_run());
  EXPECT_EQ(q.size(), 99u);
}

TEST(HeapQueue, OutOfOrderPushLeavesSortedRunAndReentersWhenDrained) {
  HeapQueue q;
  for (int i = 0; i < 10; ++i) {
    q.push(ev(1.0 + i, static_cast<std::uint64_t>(i)));
  }
  EXPECT_TRUE(q.in_sorted_run());
  q.push(ev(0.5, 100));  // earlier than the tail: exits sorted mode
  EXPECT_FALSE(q.in_sorted_run());
  EXPECT_EQ(q.pop_min()->seq, 100u);  // heap mode still pops in time order
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(q.pop_min()->seq, i);
  EXPECT_FALSE(q.pop_min().has_value());
  EXPECT_TRUE(q.in_sorted_run());  // drained: back on the fast path
  q.push(ev(2.0, 200));
  q.push(ev(1.0, 201));  // exercises the exit again after re-entry
  EXPECT_FALSE(q.in_sorted_run());
  EXPECT_EQ(q.pop_min()->seq, 201u);
  EXPECT_EQ(q.pop_min()->seq, 200u);
}

TEST(HeapQueue, PushBehindPoppedFrontReRootsTheRun) {
  // Pops advance the sorted run's head; an event earlier than everything
  // already popped (run_until can leave the clock behind a stale front)
  // must still come out first once the live range is re-rooted.
  HeapQueue q;
  for (int i = 0; i < 6; ++i) {
    q.push(ev(5.0 + i, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(q.pop_min()->seq, 0u);
  EXPECT_EQ(q.pop_min()->seq, 1u);
  q.push(ev(2.0, 100));
  EXPECT_FALSE(q.in_sorted_run());
  q.push(ev(3.0, 101));
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.pop_min()->seq, 100u);
  EXPECT_EQ(q.pop_min()->seq, 101u);
  for (std::uint64_t i = 2; i < 6; ++i) EXPECT_EQ(q.pop_min()->seq, i);
  EXPECT_FALSE(q.pop_min().has_value());
}

TEST(HeapQueue, PeekDoesNotPerturbOrdering) {
  // peek_min is read-only in either representation: an earlier push after
  // a peek must still pop first, and repeated peeks agree with the pop.
  HeapQueue q;
  q.push(ev(4.0, 1));
  ASSERT_TRUE(q.peek_min().has_value());
  EXPECT_EQ(q.peek_min()->seq, 1u);
  EXPECT_TRUE(q.in_sorted_run());
  q.push(ev(1.0, 2));  // earlier than the peeked min
  EXPECT_EQ(q.peek_min()->seq, 2u);
  EXPECT_EQ(q.peek_min()->seq, 2u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop_min()->seq, 2u);
  EXPECT_EQ(q.peek_min()->seq, 1u);
  EXPECT_EQ(q.pop_min()->seq, 1u);
  EXPECT_FALSE(q.peek_min().has_value());
}

TEST(HeapQueue, HandlesSparseHorizons) {
  // Keys from one nanosecond to the TimePoint::max() sentinel share the
  // queue; adjacent nanoseconds far out must not be conflated.
  HeapQueue q;
  q.push(QueuedEvent{TimePoint::max(), 1, 2});
  q.push(ev(0.001, 2));
  q.push(ev(3.0e5, 3));  // ~83 hours
  q.push(QueuedEvent{TimePoint::from_nanos(1), 4, 5});
  q.push(QueuedEvent{TimePoint::from_nanos(300'000'000'000'001), 5, 6});
  q.push(ev(0.002, 6));
  EXPECT_EQ(q.pop_min()->seq, 4u);
  EXPECT_EQ(q.pop_min()->seq, 2u);
  EXPECT_EQ(q.pop_min()->seq, 6u);
  EXPECT_EQ(q.pop_min()->seq, 3u);
  EXPECT_EQ(q.pop_min()->seq, 5u);
  const auto last = q.pop_min();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->seq, 1u);
  EXPECT_EQ(last->time, TimePoint::max());
  EXPECT_FALSE(q.pop_min().has_value());
}

TEST(HeapQueue, GrowsThroughCapacityDoublingsInBothModes) {
  // 10^4 entries cross several buffer doublings: first as one monotone run
  // (with a popped prefix to reclaim when the tail fills), then in heap
  // mode with about ten entries tied on every time, which must pop FIFO.
  HeapQueue q;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    q.push(ev(0.001 * static_cast<double>(i), i));
    if (i % 4 == 3) {
      EXPECT_EQ(q.pop_min()->seq, i / 4);
    }
  }
  EXPECT_TRUE(q.in_sorted_run());
  for (std::uint64_t i = 2500; i < 10000; ++i) {
    EXPECT_EQ(q.pop_min()->seq, i);
  }
  ASSERT_TRUE(q.empty());

  for (std::uint64_t i = 0; i < 10000; ++i) {
    q.push(ev(0.001 * static_cast<double>(i % 997), i));
  }
  EXPECT_FALSE(q.in_sorted_run());
  EXPECT_EQ(q.size(), 10000u);
  std::int64_t last_ns = -1;
  std::uint64_t last_seq = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto e = q.pop_min();
    ASSERT_TRUE(e.has_value());
    const std::int64_t ns = e->time.as_nanos();
    ASSERT_GE(ns, last_ns);
    if (ns == last_ns) {
      ASSERT_GT(e->seq, last_seq) << "FIFO tie broken at " << ns << " ns";
    }
    last_ns = ns;
    last_seq = e->seq;
  }
  EXPECT_TRUE(q.empty());
}

TEST(HeapQueue, ClearEmptiesAndRestoresSortedMode) {
  HeapQueue q;
  for (int i = 10; i > 0; --i) {
    q.push(ev(i, static_cast<std::uint64_t>(10 - i)));  // descending: heap mode
  }
  EXPECT_FALSE(q.in_sorted_run());
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.in_sorted_run());
  EXPECT_FALSE(q.pop_min().has_value());
  q.push(ev(1.0, 1));
  EXPECT_EQ(q.pop_min()->seq, 1u);
}

TEST(HeapQueue, RandomizedAgainstSortedReference) {
  // Interleaved pushes, pops and retains with near-future, clustered and
  // far-future times: every pop must return the front of a sorted
  // (time, seq) reference, whichever representation the heap is in at the
  // time. A retain (the scheduler's purge) drops a random share of the
  // entries; a sorted run must stay one, and the heap must pop the
  // survivors in order.
  Rng rng(12345);
  int sorted_run_pops = 0;
  int heap_mode_pops = 0;
  int sorted_run_retains = 0;
  int heap_mode_retains = 0;
  for (int round = 0; round < 5; ++round) {
    HeapQueue heap;
    std::set<std::pair<std::int64_t, std::uint64_t>> reference;
    std::uint64_t seq = 0;
    double clock = 0;
    for (int op = 0; op < 4000; ++op) {
      const bool sorted = heap.in_sorted_run();
      if (heap.size() > 1 && rng.uniform() < (sorted ? 0.1 : 0.01)) {
        // Keep the ids outside one residue class: a half to a quarter of
        // the entries go.
        const std::uint64_t mod = 2 + rng.uniform_int(3);
        const std::uint64_t drop = rng.uniform_int(mod);
        heap.retain([&](std::uint64_t id) { return id % mod != drop; });
        std::erase_if(reference, [&](const auto& entry) {
          return (entry.second + 1) % mod == drop;
        });
        ++(sorted ? sorted_run_retains : heap_mode_retains);
        ASSERT_EQ(heap.size(), reference.size());
        if (sorted || heap.empty()) {
          ASSERT_TRUE(heap.in_sorted_run());
        }
        continue;
      }
      const bool push = heap.empty() || rng.uniform() < 0.55;
      if (push) {
        double t = clock;
        const double u = rng.uniform();
        if (u < 0.6) {
          t += rng.uniform(0.0, 0.01);
        } else if (u < 0.9) {
          t += rng.uniform(0.0, 1.0);
        } else {
          t += rng.uniform(0.0, 300.0);
        }
        const QueuedEvent e{TimePoint::from_seconds(t), seq, seq + 1};
        ++seq;
        heap.push(e);
        reference.emplace(e.time.as_nanos(), e.seq);
      } else {
        ++(heap.in_sorted_run() ? sorted_run_pops : heap_mode_pops);
        const auto peeked = heap.peek_min();
        const auto popped = heap.pop_min();
        ASSERT_TRUE(peeked.has_value());
        ASSERT_TRUE(popped.has_value());
        ASSERT_EQ(peeked->seq, popped->seq);
        const auto [front_ns, front_seq] = *reference.begin();
        reference.erase(reference.begin());
        ASSERT_EQ(popped->time.as_nanos(), front_ns)
            << "round " << round << " op " << op;
        ASSERT_EQ(popped->seq, front_seq) << "round " << round << " op " << op;
        ASSERT_EQ(popped->id, popped->seq + 1);
        clock = popped->time.as_seconds();  // times only move forward
      }
      ASSERT_EQ(heap.size(), reference.size());
    }
    for (const auto& [ns, s] : reference) {
      const auto popped = heap.pop_min();
      ASSERT_TRUE(popped.has_value());
      ASSERT_EQ(popped->time.as_nanos(), ns);
      ASSERT_EQ(popped->seq, s);
    }
    EXPECT_FALSE(heap.pop_min().has_value());
  }
  // The op mix drains the queue now and then, so both representations
  // (and the switches between them) serve pops and retains.
  EXPECT_GT(sorted_run_pops, 0);
  EXPECT_GT(heap_mode_pops, 0);
  EXPECT_GT(sorted_run_retains, 0);
  EXPECT_GT(heap_mode_retains, 0);
}

}  // namespace
}  // namespace tcppr::sim
