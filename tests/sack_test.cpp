// Behavioural tests for the SACK sender (scoreboard/pipe recovery),
// go-back-N retransmission accounting of both window families, and
// TD-FR's timer-deferred fast retransmit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "tcp/sack.hpp"
#include "tcp/tdfr.hpp"
#include "test_util.hpp"

namespace tcppr::tcp {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

void drop_first_tx_of(net::Link* link, std::set<net::SeqNo> targets) {
  auto counts = std::make_shared<std::map<net::SeqNo, int>>();
  link->set_drop_filter([counts, targets](const net::Packet& pkt) {
    if (pkt.type != net::PacketType::kTcpData) return false;
    if (!targets.contains(pkt.tcp.seq)) return false;
    return ++(*counts)[pkt.tcp.seq] == 1;
  });
}

// Every data segment a link carried (dropped ones included), each with the
// number of RTOs its sender had taken when the segment crossed.
struct SendLog {
  struct Send {
    net::SeqNo seq;
    std::uint64_t timeouts;
  };
  std::vector<Send> sends;
  std::map<net::SeqNo, int> times_sent;

  net::SeqNo highest_before_first_rto() const {
    net::SeqNo highest = -1;
    for (const Send& s : sends) {
      if (s.timeouts == 0) highest = std::max(highest, s.seq);
    }
    return highest;
  }
  // Sends after the first RTO of segments sent before it (go-back-N).
  std::uint64_t resends_after_first_rto() const {
    const net::SeqNo highest = highest_before_first_rto();
    std::uint64_t n = 0;
    for (const Send& s : sends) n += s.timeouts > 0 && s.seq <= highest;
    return n;
  }
  // Sends of a segment beyond its first: each one a retransmission.
  std::uint64_t repeat_sends() const {
    return sends.size() - times_sent.size();
  }
};

// A fast recovery, then an RTO with segments above snd_una outstanding:
// the path's bottleneck drops the first transmission of `drop_once` and
// every data segment in [outage_from, outage_to) seconds, logging each.
std::shared_ptr<SendLog> drop_once_then_outage(PathFixture& f,
                                               const SenderBase* sender,
                                               net::SeqNo drop_once,
                                               double outage_from,
                                               double outage_to) {
  auto log = std::make_shared<SendLog>();
  const sim::Scheduler* sched = &f.sched;
  f.fwd->set_drop_filter([=](const net::Packet& pkt) {
    if (pkt.type != net::PacketType::kTcpData) return false;
    const bool first = log->times_sent[pkt.tcp.seq]++ == 0;
    log->sends.push_back({pkt.tcp.seq, sender->stats().timeouts});
    const double t = sched->now().as_seconds();
    return (first && pkt.tcp.seq == drop_once) ||
           (t >= outage_from && t < outage_to);
  });
  return log;
}

TEST(Sack, CompletesFixedTransferCleanly) {
  // Both windows stay below the queue limit: no self-induced losses. At
  // most 6 segments in flight keep the transmission ring at its 8-slot
  // minimum, so 2000 segments reuse every slot 250 times; a slot the
  // cumulative ACK passed but left set would make its next send look like
  // a resend.
  for (const auto& [max_cwnd, segments] :
       {std::pair<double, SeqNo>{30, 500}, std::pair<double, SeqNo>{6, 2000}}) {
    SCOPED_TRACE(testing::Message() << "max_cwnd " << max_cwnd);
    PathFixture f;
    tcp::TcpConfig config;
    config.max_cwnd = max_cwnd;
    auto* sender = f.add_flow(TcpVariant::kSack, 1, config);
    sender->set_transfer_segments(segments);
    bool done = false;
    sender->set_completion_callback([&] { done = true; });
    sender->start();
    f.run_for(30);
    EXPECT_TRUE(done);
    EXPECT_EQ(sender->stats().data_packets_sent,
              static_cast<std::uint64_t>(segments));
    EXPECT_EQ(sender->stats().retransmissions, 0u);
    EXPECT_TRUE(sender->invariant_view().scoreboard_ok);
  }
}

TEST(Sack, SingleLossRecoveredBySingleRetransmit) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* sender = f.add_flow(TcpVariant::kSack, 1, config);
  drop_first_tx_of(f.fwd, {30});
  sender->start();
  f.run_for(10);
  EXPECT_EQ(sender->stats().fast_retransmits, 1u);
  EXPECT_EQ(sender->stats().retransmissions, 1u);
  EXPECT_EQ(sender->stats().timeouts, 0u);
}

TEST(Sack, MultipleLossesOneWindowOneHalving) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 40;
  auto* sack =
      dynamic_cast<SackSender*>(f.add_flow(TcpVariant::kSack, 1, config));
  drop_first_tx_of(f.fwd, {50, 52, 54, 56});
  sack->start();
  f.run_for(15);
  EXPECT_EQ(sack->stats().cwnd_halvings, 1u);
  EXPECT_EQ(sack->stats().timeouts, 0u);
  EXPECT_GE(sack->stats().retransmissions, 4u);
  EXPECT_GT(sack->stats().segments_acked, 1000);
}

TEST(Sack, PipeNeverWildlyExceedsWindow) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 60;
  auto* sack =
      dynamic_cast<SackSender*>(f.add_flow(TcpVariant::kSack, 1, config));
  f.fwd->set_loss_model(0.05, sim::Rng(3));
  sack->start();
  // Invariants sampled during the run: pipe can transiently exceed cwnd
  // right after a halving, but can never exceed the sequence range in
  // flight, and the range itself stays near the window.
  for (int i = 1; i <= 100; ++i) {
    f.sched.schedule_at(sim::TimePoint::from_seconds(0.2 * i), [&] {
      const double range =
          static_cast<double>(sack->snd_nxt() - sack->snd_una());
      EXPECT_LE(sack->pipe(), range + 1e-9);
      EXPECT_GE(sack->pipe(), 0.0);
    });
  }
  f.run_for(21);
}

TEST(Sack, TimeoutOnTotalOutageThenRecovery) {
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  f.sched.schedule_at(sim::TimePoint::from_seconds(1.0), [&] {
    f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  });
  f.sched.schedule_at(sim::TimePoint::from_seconds(7.0), [&] {
    f.fwd->set_drop_filter(nullptr);
  });
  sender->start();
  f.run_for(30);
  EXPECT_GE(sender->stats().timeouts, 1u);
  EXPECT_GT(sender->stats().segments_acked, 1000);
}

TEST(Sack, ReorderingCausesSpuriousRetransmits) {
  // A 25 ms jitter link (implemented by alternating path delay via two
  // routes is not available here, so use the multipath harness instead) —
  // here we simply check the dupthresh gap rule fires under induced
  // reordering created by delaying one segment through drop+later arrival.
  PathFixture f;
  auto* sender = f.add_flow(TcpVariant::kSack, 1);
  drop_first_tx_of(f.fwd, {30});
  sender->start();
  f.run_for(5);
  // The retransmitted segment arrives once: no duplicate at the receiver.
  EXPECT_EQ(f.receiver()->stats().duplicates, 0u);
}

TEST(Sack, EffectiveDupthreshClampedByWindow) {
  PathFixture f;
  tcp::TcpConfig config;
  config.dupthresh = 100;  // absurd: must clamp to cwnd-1
  auto* sack =
      dynamic_cast<SackSender*>(f.add_flow(TcpVariant::kSack, 1, config));
  sack->start();
  f.run_for(0.1);
  EXPECT_LE(sack->effective_dupthresh(),
            static_cast<int>(sack->cwnd()) + 1);
  EXPECT_GE(sack->effective_dupthresh(), 3);
}

TEST(GoBackN, ResendsAfterRtoCountAsRetransmissions) {
  // One fast recovery (for SACK, marks set and then released by the
  // cumulative ACK), then an outage long enough for an RTO with a window
  // outstanding. Go-back-N resends every segment from snd_una up to the
  // highest one sent; each must find its earlier transmission recorded
  // above the rewound snd_nxt, and nothing else may count as a
  // retransmission.
  for (const TcpVariant variant : {TcpVariant::kSack, TcpVariant::kNewReno}) {
    SCOPED_TRACE(harness::to_string(variant));
    PathFixture f;
    tcp::TcpConfig config;
    config.max_cwnd = 30;
    auto* sender = f.add_flow(variant, 1, config);
    const auto log = drop_once_then_outage(f, sender, 30, 1.0, 3.0);
    sender->start();
    f.run_for(10);
    EXPECT_EQ(sender->stats().fast_retransmits, 1u);
    EXPECT_GE(sender->stats().timeouts, 1u);
    EXPECT_GE(log->resends_after_first_rto(), 10u);
    EXPECT_EQ(sender->stats().retransmissions, log->repeat_sends());
    EXPECT_GT(sender->stats().segments_acked,
              log->highest_before_first_rto());
    EXPECT_TRUE(sender->invariant_view().scoreboard_ok);
  }
}

TEST(TdFr, NoFastRetransmitBeforeWaitExpires) {
  PathFixture f(10e6, sim::Duration::millis(40));
  auto* tdfr = dynamic_cast<TdFrSender*>(f.add_flow(TcpVariant::kTdFr, 1));
  drop_first_tx_of(f.fwd, {30});
  tdfr->start();
  f.run_for(10);
  // The drop is eventually repaired (timer path), and only once.
  EXPECT_EQ(tdfr->stats().fast_retransmits, 1u);
  EXPECT_EQ(tdfr->stats().timeouts, 0u);
  EXPECT_GT(tdfr->stats().segments_acked, 500);
}

TEST(TdFr, PersistentProgressCancelsWait) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* tdfr =
      dynamic_cast<TdFrSender*>(f.add_flow(TcpVariant::kTdFr, 1, config));
  tdfr->start();
  f.run_for(10);
  // No losses: no recovery episodes at all.
  EXPECT_EQ(tdfr->stats().fast_retransmits, 0u);
  EXPECT_EQ(tdfr->stats().retransmissions, 0u);
}

TEST(TdFr, SlowerRepairThanNewReno) {
  // TD-FR rides on NewReno, so against a NewReno baseline the trajectories
  // are identical up to the drop; the deferred retransmit must then repair
  // the hole measurably later (>= srtt/2 past the first dupack instead of
  // at the third dupack).
  const auto repair_time = [](TcpVariant v) {
    PathFixture f(10e6, sim::Duration::millis(30));
    tcp::TcpConfig config;
    config.max_cwnd = 30;
    auto* sender = f.add_flow(v, 1, config);
    drop_first_tx_of(f.fwd, {100});
    sender->start();
    while (f.receiver()->rcv_next() <= 100 &&
           f.sched.now() < sim::TimePoint::from_seconds(10)) {
      f.run_for(0.001);
    }
    return f.sched.now().as_seconds();
  };
  const double t_newreno = repair_time(TcpVariant::kNewReno);
  const double t_tdfr = repair_time(TcpVariant::kTdFr);
  // srtt/2 here is ~31 ms; allow the dupack spacing it skips.
  EXPECT_GT(t_tdfr, t_newreno + 0.01);
  EXPECT_LT(t_tdfr, t_newreno + 1.0);  // but far quicker than an RTO
}

}  // namespace
}  // namespace tcppr::tcp
