// Unit tests for the batched hot path: the link pump's op index, and the
// link-level op-order invariant on jittered lossy links (the loss lottery
// runs at transmission completion, strictly after that hop's
// next-transmission mint — regression for the stamped schedule-op
// ordering).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "net/link_pump.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace tcppr::net {
namespace {

Packet make_packet(NodeId dst, std::uint32_t bytes, FlowId flow = 1) {
  Packet pkt;
  pkt.dst = dst;
  pkt.size_bytes = bytes;
  pkt.tcp.flow = flow;
  return pkt;
}

// --- Link pump op index ------------------------------------------------

TEST(PumpIndex, RandomizedAgainstSortedReference) {
  // Insert, re-key earlier, re-key later, remove and drain steps over a
  // small stream population (the pump's shape: one leaf per stream, keys
  // clustered around a moving clock, frequent ties on time): after every
  // step the root must be the front of a sorted (key, stream) reference,
  // and the size and every stream's presence and key must match it.
  // Rounds 0-3 register all 56 streams up front, as a built network does.
  // Rounds 4-7 start from 0 streams, register 1, then 1, 3, 29 and 22
  // more while streams are present: the tree grows under live keys (the
  // last count fits the leaves it has), and the first insert after each
  // registration lands on a new stream id.
  using Key = std::pair<std::int64_t, std::uint64_t>;
  sim::Rng rng(2024);
  constexpr std::uint32_t kStreams = 56;
  constexpr std::uint32_t kGrowth[] = {1, 3, 29, 22};  // after the first 1
  int steps[5] = {};
  int growths = 0;
  for (int round = 0; round < 8; ++round) {
    const bool growing = round >= 4;
    PumpIndex index;
    std::uint32_t registered = growing ? 1 : kStreams;
    if (growing) {
      index.add_streams(1);
    } else {
      index.add_streams(kStreams / 2);
      index.add_streams(kStreams / 2);
    }
    std::size_t next_growth = 0;
    std::set<std::pair<Key, std::uint32_t>> reference;
    std::map<std::uint32_t, Key> live;
    // Keys are unique, as the pump's are: fresh sequences are spaced
    // 2^20 apart, and a re-key to an earlier key at the same time takes
    // the sequence just below the stream's own.
    std::uint64_t next_seq = 1;
    const auto fresh_seq = [&] { return (next_seq++) << 20; };
    std::int64_t clock = 0;
    const auto random_key = [&](std::int64_t base) {
      const double u = rng.uniform();
      const std::int64_t dt =
          u < 0.3 ? 0 : static_cast<std::int64_t>(rng.uniform(0.0, 5000.0));
      return PumpKey{sim::TimePoint::from_nanos(base + dt), fresh_seq()};
    };
    for (int op = 0; op < 6000; ++op) {
      std::uint32_t stream;
      const bool grow = growing && next_growth < std::size(kGrowth) &&
                        op >= 300 * static_cast<int>(next_growth + 1) &&
                        !live.empty();
      if (grow) {
        const std::uint32_t n = kGrowth[next_growth++];
        index.add_streams(n);
        stream = registered + static_cast<std::uint32_t>(rng.uniform_int(n));
        registered += n;
        ++growths;
      } else {
        stream = static_cast<std::uint32_t>(rng.uniform_int(registered));
      }
      const double u = rng.uniform();
      int kind;
      if (u < 0.002 && !grow) {
        kind = 4;  // drain
        for (const auto& entry : live) index.remove(entry.first);
        reference.clear();
        live.clear();
      } else if (!index.contains(stream)) {
        kind = 0;  // insert
        const PumpKey k = random_key(clock);
        index.insert(stream, k);
        live[stream] = Key{k.at.as_nanos(), k.seq};
      } else if (u < 0.35) {
        kind = 3;  // remove
        reference.erase({live[stream], stream});
        live.erase(stream);
        index.remove(stream);
      } else {
        // Re-key: later (the running op's stream advancing) or earlier
        // (a jittered delivery overtaking its ring head).
        const bool earlier = u < 0.5;
        kind = earlier ? 1 : 2;
        const Key old = live[stream];
        PumpKey k = random_key(old.first);
        if (earlier && old.first > clock) {
          k = PumpKey{sim::TimePoint::from_nanos(
                          clock + static_cast<std::int64_t>(rng.uniform_int(
                                      static_cast<std::uint64_t>(
                                          old.first - clock)))),
                      fresh_seq()};
        } else if (earlier) {
          k = PumpKey{sim::TimePoint::from_nanos(old.first), old.second - 1};
        }
        reference.erase({old, stream});
        index.update(stream, k);
        live[stream] = Key{k.at.as_nanos(), k.seq};
      }
      ++steps[kind];
      ASSERT_TRUE(!grow || kind == 0) << "round " << round << " op " << op;
      if (kind <= 2) reference.insert({live[stream], stream});
      ASSERT_EQ(index.size(), reference.size()) << "round " << round
                                                << " op " << op;
      for (std::uint32_t s = 0; s < registered; ++s) {
        const auto it = live.find(s);
        ASSERT_EQ(index.contains(s), it != live.end())
            << "round " << round << " op " << op << " stream " << s;
        if (it == live.end()) continue;
        ASSERT_EQ(index.key(s).at.as_nanos(), it->second.first);
        ASSERT_EQ(index.key(s).seq, it->second.second);
      }
      if (reference.empty()) {
        ASSERT_TRUE(index.empty());
        continue;
      }
      const auto& [front_key, front_stream] = *reference.begin();
      ASSERT_EQ(index.top().stream, front_stream)
          << "round " << round << " op " << op;
      ASSERT_EQ(index.top().key.at.as_nanos(), front_key.first);
      ASSERT_EQ(index.top().key.seq, front_key.second);
      clock = front_key.first;  // the root is the pump's next op
    }
    EXPECT_EQ(registered, kStreams);
  }
  for (const int n : steps) EXPECT_GT(n, 20);
  EXPECT_EQ(growths, 4 * static_cast<int>(std::size(kGrowth)));
}

// --- Link op-order regression (jitter + loss lottery) -----------------

// Collects the exact arrival sequence at the far node.
class RecordingAgent final : public Agent {
 public:
  void deliver(Packet&& pkt) override {
    arrivals.push_back({pkt.tcp.seq, pkt.hops});
  }
  std::vector<std::pair<SeqNo, int>> arrivals;
};

// One jittered, lossy link driven to saturation. The invariant under
// test: per (node, instant), the scheduler op minted for the *next*
// transmission precedes the op minted for the completed packet's
// delivery — the loss lottery (and jitter draw) sit between the two, so
// any swap reorders the RNG stream and the delivery schedule. The
// batched pump replays exactly that mint order; with TCPPR_DCHECK on,
// Link::complete_packet asserts the delivery mint lands after the
// stamped next-tx op. Equal arrival sequences batched vs unbatched are
// the observable witness.
std::vector<std::pair<SeqNo, int>> run_jittered_lossy(bool batching) {
  set_hot_path_batching(batching);
  sim::Scheduler sched;
  sched.enable_seq_stamping();
  Network network(sched);
  set_hot_path_batching(true);  // restore the process default
  const NodeId a = network.add_node();
  const NodeId b = network.add_node();
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = sim::Duration::millis(5);
  cfg.queue_limit_packets = 1000;
  Link& ab = network.add_link(a, b, cfg);
  network.compute_static_routes();
  ab.set_loss_model(0.2, sim::Rng(42));
  ab.set_jitter(sim::Duration::millis(8), sim::Rng(43));

  RecordingAgent agent;
  network.node(b).attach_agent(/*flow=*/1, &agent);
  for (int i = 0; i < 400; ++i) {
    Packet pkt = make_packet(b, 500);
    pkt.tcp.seq = i;
    network.node(a).originate(std::move(pkt));
  }
  // Run in slices: between them, the pump's index holds at most one slot
  // per op stream even while jittered deliveries keep overtaking their
  // ring heads (a lazily invalidated index would keep the overtaken heads
  // as stale entries).
  for (int slice = 1; sched.pending_count() > 0; ++slice) {
    sched.run_until(sim::TimePoint::from_nanos(slice * 1'000'000));
    if (const LinkPump* pump = network.pump()) {
      EXPECT_LE(pump->indexed(), 2 * pump->link_count()) << "slice " << slice;
    }
  }
  network.node(b).detach_agent(1);
  return agent.arrivals;
}

TEST(LinkPump, SecondNetworkSharesTheScheduler) {
  // ReceiverFixture::build's shape: a second Network is built on a
  // scheduler whose first Network is still alive with its carrier event
  // parked at the next op, and the first dies before the second carries
  // anything. Each pump parks its own carrier and cancels it when it dies.
  sim::Scheduler sched;
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.delay = sim::Duration::millis(5);
  const auto wire = [&](Network& network, RecordingAgent& agent) {
    const NodeId a = network.add_node();
    const NodeId b = network.add_node();
    network.add_link(a, b, cfg);
    network.compute_static_routes();
    network.node(b).attach_agent(/*flow=*/1, &agent);
    for (int i = 0; i < 10; ++i) {
      Packet pkt = make_packet(b, 500);
      pkt.tcp.seq = i;
      network.node(a).originate(std::move(pkt));
    }
  };

  RecordingAgent first_agent;
  auto first = std::make_unique<Network>(sched);
  wire(*first, first_agent);
  sched.run_until(sim::TimePoint::from_nanos(6'000'000));
  ASSERT_FALSE(first_agent.arrivals.empty());
  ASSERT_LT(first_agent.arrivals.size(), 10u);
  EXPECT_EQ(sched.pending_count(), 1u);  // the carrier, at the next op
  // Every event this scheduler fired was a carrier.
  EXPECT_EQ(sched.processed_count(), first->pump()->stats().events);

  auto second = std::make_unique<Network>(sched);
  first->node(1).detach_agent(1);
  first.reset();
  EXPECT_EQ(sched.pending_count(), 0u);  // cancelled with its pump

  RecordingAgent second_agent;
  wire(*second, second_agent);
  sched.run();
  EXPECT_EQ(second_agent.arrivals.size(), 10u);
  EXPECT_EQ(sched.pending_count(), 0u);
  second->node(1).detach_agent(1);
}

TEST(LinkOpOrder, JitteredLossyDeliverySequenceMatchesUnbatched) {
  const auto unbatched = run_jittered_lossy(false);
  const auto batched = run_jittered_lossy(true);
  // Losses happened (the lottery ran) and jitter reordered arrivals
  // (the merge-sorted ring actually exercised), yet the sequences agree
  // exactly.
  ASSERT_FALSE(unbatched.empty());
  EXPECT_LT(unbatched.size(), 400u);
  bool reordered = false;
  for (std::size_t i = 1; i < unbatched.size(); ++i) {
    if (unbatched[i].first < unbatched[i - 1].first) reordered = true;
  }
  EXPECT_TRUE(reordered);
  EXPECT_EQ(batched, unbatched);
}

}  // namespace
}  // namespace tcppr::net
