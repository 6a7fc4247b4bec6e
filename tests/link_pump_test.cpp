// Unit tests for the batched hot path: the link pump's op index, and the
// link-level op-order invariant on jittered lossy links (the loss lottery
// runs at transmission completion, strictly after that hop's
// next-transmission mint — regression for the stamped schedule-op
// ordering).
#include <gtest/gtest.h>

#include <cstdint>
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
  // Insert, re-key earlier, re-key later, remove and clear steps over a
  // small stream population (the pump's shape: one slot per stream, keys
  // clustered around a moving clock, frequent ties on time): after every
  // step the root must be the front of a sorted (key, stream) reference
  // and the size must match it.
  using Key = std::pair<std::int64_t, std::uint64_t>;
  sim::Rng rng(2024);
  constexpr std::uint32_t kStreams = 56;
  int steps[5] = {};
  for (int round = 0; round < 4; ++round) {
    PumpIndex index;
    index.add_streams(kStreams / 2);
    index.add_streams(kStreams / 2);
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
      const auto stream =
          static_cast<std::uint32_t>(rng.uniform_int(kStreams));
      const double u = rng.uniform();
      int kind;
      if (u < 0.002) {
        kind = 4;  // clear
        index.clear();
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
      if (kind <= 2) {
        reference.insert({live[stream], stream});
        ASSERT_EQ(index.key(stream).seq, live[stream].second);
      }
      ASSERT_EQ(index.size(), reference.size()) << "round " << round
                                                << " op " << op;
      if (reference.empty()) {
        ASSERT_TRUE(index.empty());
        continue;
      }
      const auto& [front_key, front_stream] = *reference.begin();
      ASSERT_EQ(index.top().stream, front_stream)
          << "round " << round << " op " << op;
      ASSERT_EQ(index.top().key.at.as_nanos(), front_key.first);
      ASSERT_EQ(index.top().key.seq, front_key.second);
      ASSERT_EQ(index.key(front_stream).seq, front_key.second);
      clock = front_key.first;  // the root is the pump's next op
    }
  }
  for (const int n : steps) EXPECT_GT(n, 20);
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
