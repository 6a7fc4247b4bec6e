// Unit tests for the link pump: its op index, its place in the
// scheduler's total order on random networks (the pump's oracle), and the
// link-level op-order invariant on jittered lossy links (the loss lottery
// runs at transmission completion, strictly after that hop's
// next-transmission mint — regression for the stamped schedule-op
// ordering).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/link_pump.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "validate/determinism.hpp"

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

// Arrivals of one jittered lossy run and the delivery hash of its trace.
struct JitteredLossyRun {
  std::vector<std::pair<SeqNo, int>> arrivals;
  std::uint64_t delivery_hash = 0;
};

// One jittered, lossy link driven to saturation. The invariant under
// test: per (node, instant), the scheduler op minted for the *next*
// transmission precedes the op minted for the completed packet's
// delivery — the loss lottery (and jitter draw) sit between the two, so
// any swap reorders the RNG stream and the delivery schedule. With
// TCPPR_DCHECK on, Link::complete_packet asserts the delivery mint lands
// after the stamped next-tx op; the arrival fingerprint is the observable
// witness.
JitteredLossyRun run_jittered_lossy() {
  sim::Scheduler sched;
  sched.enable_seq_stamping();
  Network network(sched);
  validate::DeliveryHasher hasher;
  network.add_trace_sink(&hasher);
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
    const LinkPump* pump = network.pump();
    EXPECT_LE(pump->indexed(), 2 * pump->link_count()) << "slice " << slice;
  }
  network.node(b).detach_agent(1);
  EXPECT_EQ(hasher.delivered(), agent.arrivals.size());
  return JitteredLossyRun{agent.arrivals, hasher.hash()};
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

TEST(LinkOpOrder, JitteredLossyDeliverySequenceMatchesRecordedFingerprint) {
  const JitteredLossyRun run = run_jittered_lossy();
  // Losses happened (the lottery ran) and jitter reordered arrivals (the
  // merge-sorted ring actually exercised).
  ASSERT_FALSE(run.arrivals.empty());
  EXPECT_LT(run.arrivals.size(), 400u);
  bool reordered = false;
  for (std::size_t i = 1; i < run.arrivals.size(); ++i) {
    if (run.arrivals[i].first < run.arrivals[i - 1].first) reordered = true;
  }
  EXPECT_TRUE(reordered);
  // Recorded when a one-event-per-op engine still ran beside the pump and
  // both produced exactly this stream: arrival count and the delivery hash
  // over (time, flow, node, seq, size) of every arrival.
  EXPECT_EQ(run.arrivals.size(), 318u);
  EXPECT_EQ(run.delivery_hash, 0x283e531dca0aeaf4ull);
}

// --- Pump order oracle ---------------------------------------------------

// Every agent delivery and every foreign event of one run, keyed by the
// scheduler position it executed at: (now, current_event_seq). Each key
// must lie inside the active run slice and exceed the one before it — the
// total order a scheduler firing one event per op would follow.
class OrderLog {
 public:
  explicit OrderLog(const sim::Scheduler& sched) : sched_(sched) {}

  void set_limit(sim::TimePoint limit) { limit_ = limit; }
  void record(const char* what) {
    const Key key{sched_.now().as_nanos(), sched_.current_event_seq()};
    if (key.first > limit_.as_nanos()) {
      fail(std::string(what) + " past the slice limit");
    }
    if (!keys_.empty() && !(keys_.back() < key)) {
      fail(std::string(what) + " out of order");
    }
    if (!keys_.empty() && keys_.back().first == key.first) ++same_time_;
    keys_.push_back(key);
  }
  const std::string& first_failure() const { return failure_; }
  std::size_t size() const { return keys_.size(); }
  // Adjacent records at one instant: ties the seq order had to break.
  std::size_t same_time() const { return same_time_; }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;
  void fail(const std::string& why) {
    if (failure_.empty()) {
      failure_ = why + " at record " + std::to_string(keys_.size()) +
                 ", t=" + std::to_string(sched_.now().as_nanos()) + "ns";
    }
  }

  const sim::Scheduler& sched_;
  sim::TimePoint limit_ = sim::TimePoint::max();
  std::vector<Key> keys_;
  std::size_t same_time_ = 0;
  std::string failure_;
};

class LoggingAgent final : public Agent {
 public:
  explicit LoggingAgent(OrderLog& log) : log_(log) {}
  void deliver(Packet&&) override {
    log_.record("delivery");
    ++delivered;
  }
  std::uint64_t delivered = 0;

 private:
  OrderLog& log_;
};

// Times sit on a 250 us grid: packet sizes and bandwidths give whole grid
// steps of transmission, delays are grid multiples (or zero), and foreign
// events and slice limits land on the grid too, so ops, events and limits
// collide. Jittered links add off-grid deliveries.
constexpr std::int64_t kGridNs = 250'000;

sim::TimePoint on_grid(std::uint64_t steps) {
  return sim::TimePoint::from_nanos(static_cast<std::int64_t>(steps) *
                                    kGridNs);
}

struct OracleRun {
  std::string failure;
  std::uint64_t delivered = 0;  // agent deliveries logged
  std::uint64_t foreign = 0;    // foreign events logged
  std::size_t same_time = 0;
  LinkPump::Stats pump{};
  Network::ConservationSnapshot end{};
};

// A random network of 3-6 nodes on one scheduler (stamped or plain): a
// random spanning tree plus chords, each direction with its own
// bandwidth, delay (two in five zero), queue limit, and maybe jitter and
// loss. Packets start at random nodes before the run; foreign events
// scheduled before and during it originate more at their owner node.
// The run advances in random slices of run_until and run_until_before.
OracleRun run_pump_oracle(std::uint64_t seed, bool stamped) {
  sim::Rng rng(seed);
  sim::Scheduler sched;
  if (stamped) sched.enable_seq_stamping();
  Network network(sched);
  const int n = 3 + static_cast<int>(rng.uniform_int(4));
  for (int i = 0; i < n; ++i) network.add_node();
  const double bandwidths[] = {4e6, 8e6, 16e6};  // 1000 B: 2, 1, 0.5 ms
  const std::int64_t delay_steps[] = {0, 0, 1, 4, 12};
  std::uint64_t salt = 0;
  const auto add_link = [&](NodeId from, NodeId to) {
    LinkConfig cfg;
    cfg.bandwidth_bps = bandwidths[rng.uniform_int(3)];
    cfg.delay = sim::Duration::nanos(delay_steps[rng.uniform_int(5)] * kGridNs);
    cfg.queue_limit_packets = rng.bernoulli(0.3) ? 3 : 100;
    Link& link = network.add_link(from, to, cfg);
    if (rng.bernoulli(0.3)) {
      link.set_jitter(sim::Duration::micros(rng.uniform(50.0, 2000.0)),
                      rng.fork(++salt));
    }
    if (rng.bernoulli(0.3)) link.set_loss_model(0.15, rng.fork(++salt));
  };
  for (NodeId v = 1; v < n; ++v) {
    const auto u = static_cast<NodeId>(rng.uniform_int(v));
    add_link(u, v);
    add_link(v, u);
  }
  for (int chord = 0; chord < 2; ++chord) {
    const auto u = static_cast<NodeId>(rng.uniform_int(n));
    const auto v = static_cast<NodeId>(rng.uniform_int(n));
    if (u == v || network.find_link(u, v) != nullptr) continue;
    add_link(u, v);
    add_link(v, u);
  }
  network.compute_static_routes();

  OrderLog log(sched);
  std::vector<std::unique_ptr<LoggingAgent>> agents;
  for (NodeId v = 0; v < n; ++v) {
    agents.push_back(std::make_unique<LoggingAgent>(log));
    network.node(v).attach_agent(/*flow=*/1, agents.back().get());
  }
  std::uint64_t seq = 0;
  const auto originate = [&](NodeId src) {
    Packet pkt;
    pkt.dst = static_cast<NodeId>(
        (src + 1 + static_cast<NodeId>(rng.uniform_int(n - 1))) % n);
    pkt.size_bytes = rng.bernoulli(0.5) ? 500 : 1000;
    pkt.tcp.flow = 1;
    pkt.tcp.seq = static_cast<SeqNo>(seq++);
    network.node(src).originate(std::move(pkt));
  };

  // A foreign event logs itself, may originate a packet at its owner, and
  // may schedule a follow-up for the same owner, possibly at this very
  // instant: owned by the same node, it sorts after the running event on
  // a stamped scheduler too.
  std::uint64_t foreign = 0;
  std::function<void(sim::TimePoint, NodeId)> schedule_foreign;
  const auto fire = [&](NodeId owner) {
    log.record("foreign event");
    ++foreign;
    if (rng.bernoulli(0.6)) originate(owner);
    if (rng.bernoulli(0.3)) {
      schedule_foreign(sched.now() + sim::Duration::nanos(
                                         static_cast<std::int64_t>(
                                             rng.uniform_int(4)) *
                                         kGridNs),
                       owner);
    }
  };
  schedule_foreign = [&](sim::TimePoint t, NodeId owner) {
    const auto cb = [&fire, owner] { fire(owner); };
    if (stamped) {
      sched.schedule_at_for(t, static_cast<std::uint32_t>(owner), cb);
    } else {
      sched.schedule_at(t, cb);
    }
  };
  const int initial = 20 + static_cast<int>(rng.uniform_int(40));
  for (int i = 0; i < initial; ++i) {
    originate(static_cast<NodeId>(rng.uniform_int(n)));
  }
  const int events = 40 + static_cast<int>(rng.uniform_int(40));
  for (int i = 0; i < events; ++i) {
    schedule_foreign(on_grid(rng.uniform_int(400)),
                     static_cast<NodeId>(rng.uniform_int(n)));
  }

  // Slices end on the grid; run_until includes its limit, run_until_before
  // stops one nanosecond short of it.
  std::uint64_t step = 0;
  while (sched.pending_count() > 0 && step < 600) {
    step += 1 + rng.uniform_int(8);
    const sim::TimePoint end = on_grid(step);
    if (rng.bernoulli(0.5)) {
      log.set_limit(end);
      sched.run_until(end);
    } else {
      log.set_limit(end - sim::Duration::nanos(1));
      sched.run_until_before(end);
    }
    const Network::ConservationSnapshot c = network.conservation();
    EXPECT_TRUE(c.balanced()) << "step " << step;
    EXPECT_EQ(c.live, c.in_queues + c.in_transit) << "step " << step;
    const LinkPump* pump = network.pump();
    EXPECT_LE(pump->indexed(), 2 * pump->link_count()) << "step " << step;
  }
  log.set_limit(sim::TimePoint::max());
  sched.run();

  OracleRun out;
  out.failure = log.first_failure();
  for (const auto& agent : agents) out.delivered += agent->delivered;
  out.foreign = foreign;
  out.same_time = log.same_time();
  out.pump = network.pump()->stats();
  out.end = network.conservation();
  for (NodeId v = 0; v < n; ++v) network.node(v).detach_agent(1);
  return out;
}

class LinkPumpOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkPumpOracle, OpsFollowTheSchedulerOrderAndConservePackets) {
  for (const bool stamped : {false, true}) {
    SCOPED_TRACE(stamped ? "stamped" : "plain");
    const OracleRun run = run_pump_oracle(GetParam(), stamped);
    EXPECT_EQ(run.failure, "");
    // Every originated packet reached an agent or a counted drop, and
    // nothing is left queued, in flight or checked out of the pool.
    EXPECT_TRUE(run.end.balanced());
    EXPECT_EQ(run.end.in_queues + run.end.in_transit + run.end.live, 0u);
    EXPECT_EQ(run.end.unroutable, 0u);
    EXPECT_EQ(run.delivered, run.end.delivered_to_agent);
    // The oracle saw work worth ordering: deliveries, foreign events,
    // ties at one instant, and ops riding carrier events.
    EXPECT_GT(run.delivered, 20u);
    EXPECT_GE(run.foreign, 40u);
    EXPECT_GT(run.same_time, 0u);
    EXPECT_GT(run.pump.ops, run.pump.events);
  }
}

// Twelve random networks, one ctest case each.
INSTANTIATE_TEST_SUITE_P(
    Seeds, LinkPumpOracle,
    ::testing::Values(1u, 22u, 333u, 4444u, 55555u, 666666u, 7777777u,
                      88888888u, 13u, 404u, 9001u, 31337u),
    [](const auto& info) { return std::to_string(info.param); });

}  // namespace
}  // namespace tcppr::net
