// Randomized model-based test for the scheduler: a long random sequence of
// schedule / cancel / run_until / run_until_before operations and carrier
// parks checked against a naive reference model (an ordered set of live
// events). Any divergence in execution order, fired set, next deadline,
// pending count or clock is a bug, and so is a heap holding more cancelled
// entries than the purge allows.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::sim {
namespace {

using Key = std::pair<std::int64_t, std::uint64_t>;  // (time ns, seq)

// One carrier event driven the way the link pump drives its own: parked at
// a key with a minted sequence, re-parked by cancelling it and scheduling
// the new key, and, while chain > 0, re-parked from its own fire chain_ns
// later under a freshly minted sequence, as the pump parks at its next op.
// Every park takes a new negative tag.
struct CarrierChain {
  int chain = 0;
  std::int64_t chain_ns = 0;
  int next_tag = -1;
};

class Model {
 public:
  // Returns the new event's tag: 0, 1, 2, ... in schedule order.
  int schedule(std::int64_t time_ns) {
    const int tag = static_cast<int>(key_of_.size());
    key_of_.emplace_back(time_ns, next_seq_++);
    live_.emplace(key_of_.back(), tag);
    return tag;
  }
  std::uint64_t mint() { return next_seq_++; }
  // Cancels the live (unfired, uncancelled) event with the given tag.
  bool cancel(int tag) {
    return live_.erase({key_of_[static_cast<std::size_t>(tag)], tag}) > 0;
  }
  Key key(int tag) const { return key_of_[static_cast<std::size_t>(tag)]; }
  void park(Key key, int chain, std::int64_t chain_ns) {
    if (carrier_) live_.erase(*carrier_);
    chain_.chain = chain;
    chain_.chain_ns = chain_ns;
    park_at(key);
  }
  const std::optional<std::pair<Key, int>>& carrier() const {
    return carrier_;
  }
  // Fires, in (time, seq) order, every live event within the limit:
  // time <= limit, or < limit when exclusive.
  std::vector<int> run(std::int64_t limit, bool exclusive) {
    const auto within = [&](std::int64_t t) {
      return exclusive ? t < limit : t <= limit;
    };
    std::vector<int> order;
    while (!live_.empty() && within(live_.begin()->first.first)) {
      const auto [key, tag] = *live_.begin();
      live_.erase(live_.begin());
      order.push_back(tag);
      if (tag >= 0) continue;
      carrier_.reset();
      if (chain_.chain > 0) {
        --chain_.chain;
        park_at(Key{key.first + chain_.chain_ns, next_seq_++});
      }
    }
    return order;
  }
  // Tags of the live events, the carrier left out.
  std::vector<int> live_tags() const {
    std::vector<int> tags;
    for (const auto& entry : live_) {
      if (entry.second >= 0) tags.push_back(entry.second);
    }
    return tags;
  }
  std::size_t pending() const { return live_.size(); }
  // Earliest live event time, or nullopt when nothing is pending.
  std::optional<std::int64_t> next_deadline() const {
    if (live_.empty()) return std::nullopt;
    return live_.begin()->first.first;
  }

 private:
  void park_at(Key key) {
    carrier_.emplace(key, chain_.next_tag--);
    live_.insert(*carrier_);
  }

  std::vector<Key> key_of_;  // by tag
  std::set<std::pair<Key, int>> live_;
  std::optional<std::pair<Key, int>> carrier_;
  CarrierChain chain_;
  std::uint64_t next_seq_ = 0;
};

// The scheduler side of the carrier, mirroring Model's chain.
class Carrier {
 public:
  Carrier(Scheduler& sched, std::vector<int>& fired)
      : sched_(sched), fired_(fired) {}
  void park(Key key, int chain, std::int64_t chain_ns) {
    if (id_.valid()) sched_.cancel(id_);
    chain_.chain = chain;
    chain_.chain_ns = chain_ns;
    park_at(key);
  }

 private:
  void park_at(Key key) {
    const int tag = chain_.next_tag--;
    id_ = sched_.schedule_at_stamped(TimePoint::from_nanos(key.first),
                                     key.second, [this, tag] { fire(tag); });
  }
  void fire(int tag) {
    id_ = EventId{};
    fired_.push_back(tag);
    if (chain_.chain > 0) {
      --chain_.chain;
      park_at(Key{sched_.now().as_nanos() + chain_.chain_ns,
                  sched_.mint_seq(0)});
    }
  }

  Scheduler& sched_;
  std::vector<int>& fired_;
  CarrierChain chain_;
  EventId id_{};
};

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  Scheduler sched;
  Model model;
  std::vector<int> fired;    // scheduler-side execution order
  std::vector<EventId> ids;  // tag -> EventId (index = tag)
  Carrier carrier(sched, fired);
  std::int64_t clock_ns = 0;
  std::optional<std::uint64_t> reserved_seq;  // minted, not yet parked

  // The purge runs on push: right after one, queued <= 2 * pending +
  // kPurgeFloor. Cancels and fires until the next push leave the heap no
  // larger (a carrier re-parked from its own fire replaces the entry it
  // was popped from), so queued stays within 2 * (pending at that push) +
  // kPurgeFloor after every step. `pushed` checks a push that found
  // `queued` entries; one that left no more behind purged.
  std::size_t pending_at_push = 0;
  int purges = 0;
  const auto pushed = [&](std::size_t queued) -> ::testing::AssertionResult {
    if (sched.queued_count() <= queued) ++purges;
    pending_at_push = sched.pending_count();
    if (sched.queued_count() >
        2 * sched.pending_count() + Scheduler::kPurgeFloor) {
      return ::testing::AssertionFailure()
             << "queued " << sched.queued_count() << " pending "
             << sched.pending_count() << " after a push";
    }
    return ::testing::AssertionSuccess();
  };
  const auto push = [&](std::int64_t t) -> ::testing::AssertionResult {
    const int tag = model.schedule(t);
    const std::size_t queued = sched.queued_count();
    ids.push_back(sched.schedule_at(TimePoint::from_nanos(t),
                                    [&fired, tag] { fired.push_back(tag); }));
    return pushed(queued);
  };
  const auto cancel = [&](int tag) -> ::testing::AssertionResult {
    const EventId id = ids[static_cast<std::size_t>(tag)];
    const bool a = sched.cancel(id);
    const bool b = model.cancel(tag);
    if (a != b) {
      return ::testing::AssertionFailure() << "cancel divergence on " << tag;
    }
    // A cancelled id stays dead, even after its slot is reused.
    if (sched.is_pending(id) || sched.cancel(id)) {
      return ::testing::AssertionFailure() << "tag " << tag << " revived";
    }
    return ::testing::AssertionSuccess();
  };

  int reparks_earlier = 0, reparks_later = 0;
  int ties_carrier_first = 0, ties_carrier_second = 0;
  int carrier_at_deadline = 0, carrier_at_horizon = 0;
  for (int op = 0; op < 3000; ++op) {
    const double u = rng.uniform();
    bool cancelled = false;
    if (u < 0.44) {
      // Schedule at a random future time (clustered near the clock).
      ASSERT_TRUE(push(clock_ns + static_cast<std::int64_t>(
                                      rng.uniform(0, 5e7))))  // up to 50 ms
          << "op " << op;
    } else if (u < 0.49) {
      // Monotone burst: a run of nondecreasing times, the pattern the
      // heap's sorted-append fast path targets; the next random
      // schedule/cancel exercises the exit back to heap mode.
      std::int64_t t = clock_ns;
      const int burst = 1 + static_cast<int>(rng.uniform_int(30));
      for (int i = 0; i < burst; ++i) {
        t += static_cast<std::int64_t>(rng.uniform(0, 1e6));  // up to 1 ms
        ASSERT_TRUE(push(t)) << "op " << op;
      }
    } else if (u < 0.64 && !ids.empty()) {
      // Cancel a random tag (may already be fired/cancelled; both sides
      // must agree on whether the cancel "took").
      ASSERT_TRUE(cancel(static_cast<int>(rng.uniform_int(ids.size()))))
          << "op " << op;
      cancelled = true;
    } else if (u < 0.66 && !ids.empty()) {
      // Cancel-sweep: kill every live event so the next run hits the
      // dead-queue fast path (nothing live in the heap, stales queued).
      for (const int tag : model.live_tags()) {
        ASSERT_TRUE(cancel(tag)) << "op " << op;
      }
      ASSERT_EQ(sched.pending_count(), model.carrier() ? 1u : 0u);
      cancelled = true;
    } else if (u < 0.67) {
      // Cancel-heavy phase: a batch of events, then cancels of about 90%
      // of them with a push after every eighth, so pushes find more
      // cancelled than live entries and purge with live events left.
      std::vector<int> batch;
      const int n = 100 + static_cast<int>(rng.uniform_int(200));
      for (int i = 0; i < n; ++i) {
        batch.push_back(static_cast<int>(ids.size()));
        ASSERT_TRUE(push(clock_ns + static_cast<std::int64_t>(
                                        rng.uniform(0, 5e7))))
            << "op " << op;
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        std::swap(batch[i], batch[i + rng.uniform_int(batch.size() - i)]);
        if (rng.uniform() < 0.9) {
          ASSERT_TRUE(cancel(batch[i])) << "op " << op;
        }
        if (i % 8 == 7) {
          ASSERT_TRUE(push(clock_ns + static_cast<std::int64_t>(
                                          rng.uniform(0, 5e7))))
              << "op " << op;
        }
      }
      cancelled = true;
    } else if (u < 0.75) {
      // Carrier park: a first park, or a re-park earlier or later than
      // the parked key; a third of them tie in time with a live event and
      // order against it by seq, taking a sequence minted at an earlier
      // park half the time.
      std::int64_t t =
          clock_ns + static_cast<std::int64_t>(rng.uniform(0, 5e7));
      std::optional<int> tie;
      const std::vector<int> live = model.live_tags();
      if (rng.uniform() < 0.33 && !live.empty()) {
        tie = live[rng.uniform_int(live.size())];
        t = model.key(*tie).first;
      }
      const std::uint64_t fresh = sched.mint_seq(0);
      ASSERT_EQ(fresh, model.mint()) << "op " << op;
      std::uint64_t seq = fresh;
      if (reserved_seq && rng.uniform() < 0.5) {
        seq = *reserved_seq;
        reserved_seq = fresh;
      } else if (!reserved_seq) {
        reserved_seq = sched.mint_seq(0);
        ASSERT_EQ(*reserved_seq, model.mint()) << "op " << op;
      }
      const Key key{t, seq};
      if (model.carrier()) {
        ++(key < model.carrier()->first ? reparks_earlier : reparks_later);
      }
      if (tie) {
        ++(key < model.key(*tie) ? ties_carrier_first : ties_carrier_second);
      }
      const int chain = static_cast<int>(rng.uniform_int(3));
      const std::int64_t chain_ns =
          rng.uniform() < 0.3 ? 0 : static_cast<std::int64_t>(
                                        rng.uniform(0, 2e6));
      const std::size_t queued = sched.queued_count();
      carrier.park(key, chain, chain_ns);
      model.park(key, chain, chain_ns);
      ASSERT_TRUE(pushed(queued)) << "op " << op;
    } else {
      // Advance time and fire: run_until (inclusive) or run_until_before
      // (exclusive), sometimes with the limit exactly at the carrier's
      // time, where run_until fires it and run_until_before leaves it.
      const bool exclusive = rng.uniform() < 0.3;
      std::int64_t limit =
          clock_ns + static_cast<std::int64_t>(rng.uniform(0, 2e7));
      if (model.carrier() && rng.uniform() < 0.25) {
        limit = model.carrier()->first.first;
        ++(exclusive ? carrier_at_horizon : carrier_at_deadline);
      }
      const std::size_t before = fired.size();
      if (exclusive) {
        sched.run_until_before(TimePoint::from_nanos(limit));
      } else {
        sched.run_until(TimePoint::from_nanos(limit));
      }
      const std::vector<int> expected = model.run(limit, exclusive);
      ASSERT_EQ(fired.size() - before, expected.size()) << "op " << op;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(fired[before + i], expected[i]) << "op " << op;
      }
      clock_ns = limit;
      ASSERT_EQ(sched.now().as_nanos(), clock_ns) << "op " << op;
    }
    ASSERT_EQ(sched.pending_count(), model.pending()) << "op " << op;
    ASSERT_LE(sched.pending_count(), sched.queued_count()) << "op " << op;
    ASSERT_LE(sched.queued_count(), 2 * pending_at_push + Scheduler::kPurgeFloor)
        << "op " << op;
    // next_deadline() pops cancelled stales off the queue front and must
    // report the model's earliest live event, never a stale. Not
    // probed right after a cancel, so the next run still meets stales at
    // the front (and a cancel-sweep's whole stale queue).
    if (cancelled) continue;
    const std::optional<TimePoint> deadline = sched.next_deadline();
    const std::optional<std::int64_t> expected = model.next_deadline();
    ASSERT_EQ(deadline.has_value(), expected.has_value()) << "op " << op;
    if (deadline) {
      ASSERT_EQ(deadline->as_nanos(), *expected) << "op " << op;
    }
  }
  // Drain and compare the tail.
  const std::size_t before = fired.size();
  sched.run();
  const std::vector<int> expected =
      model.run(std::numeric_limits<std::int64_t>::max(), false);
  ASSERT_EQ(fired.size() - before, expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[before + i], expected[i]);
  }
  EXPECT_EQ(sched.pending_count(), 0u);
  // Every case the op mix is there for came up.
  EXPECT_GT(purges, 0);
  EXPECT_GT(reparks_earlier, 0);
  EXPECT_GT(reparks_later, 0);
  EXPECT_GT(ties_carrier_first, 0);
  EXPECT_GT(ties_carrier_second, 0);
  EXPECT_GT(carrier_at_deadline, 0);
  EXPECT_GT(carrier_at_horizon, 0);
}

// Twelve independent random schedules, one ctest case each.
INSTANTIATE_TEST_SUITE_P(
    Seeds, SchedulerFuzz,
    ::testing::Values(1u, 22u, 333u, 4444u, 55555u, 666666u, 7777777u,
                      88888888u, 13u, 404u, 9001u, 31337u),
    [](const auto& info) { return std::to_string(info.param); });

}  // namespace
}  // namespace tcppr::sim
