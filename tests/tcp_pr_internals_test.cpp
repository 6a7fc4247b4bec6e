// Quantitative unit tests on TCP-PR's internals: the ewrtt estimator's
// decay law (Section 3.1's "alpha is a memory factor in units of RTTs"),
// mxrtt behaviour, jitter-link robustness, and configuration validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "core/tcp_pr.hpp"
#include "test_util.hpp"

namespace tcppr::core {
namespace {

using harness::TcpVariant;
using testutil::PathFixture;

TcpPrSender* add_pr(PathFixture& f, tcp::TcpConfig tc = {},
                    TcpPrConfig pr = {}) {
  return dynamic_cast<TcpPrSender*>(
      f.add_flow(TcpVariant::kTcpPr, 1, tc, pr));
}

TEST(Ewrtt, DecaysAtAlphaPerRttAfterSpike) {
  // Run on a clean path until ewrtt stabilizes, then observe the decay
  // over a known time span: ewrtt(t + k RTT) ~ alpha^k * spike while the
  // max stays below it.
  PathFixture f(10e6, sim::Duration::millis(20));
  tcp::TcpConfig tc;
  tc.max_cwnd = 20;  // fixed window -> fixed RTT, fixed ack rate
  TcpPrConfig pr;
  pr.alpha = 0.9;  // fast decay so the test is short
  auto* sender = add_pr(f, tc, pr);
  sender->start();
  f.run_for(10);
  const double base = sender->ewrtt_seconds();
  ASSERT_GT(base, 0.0);

  // Inject an RTT spike: raise the forward propagation delay briefly.
  f.fwd->set_prop_delay(sim::Duration::millis(200));
  f.sched.schedule_at(f.sched.now() + sim::Duration::millis(500), [&] {
    f.fwd->set_prop_delay(sim::Duration::millis(20));
  });
  f.run_for(0.7);
  const double spiked = sender->ewrtt_seconds();
  // Spike was absorbed; it must be visibly above the base RTT...
  EXPECT_GT(spiked, base + 0.1);
  // ...and with alpha = 0.9 it must decay back toward the base within a
  // couple of seconds (~45 RTTs: 0.9^45 ~ 0.9%), never dropping below it.
  f.run_for(0.4);
  const double mid = sender->ewrtt_seconds();
  EXPECT_LT(mid, spiked);  // decaying...
  EXPECT_GT(mid, base);    // ...but not instantly
  f.run_for(3);
  const double later = sender->ewrtt_seconds();
  EXPECT_NEAR(later, base, 0.005);  // fully decayed back to the max RTT
}

TEST(Ewrtt, MaxNeverBelowLatestSample) {
  PathFixture f;
  tcp::TcpConfig tc;
  tc.max_cwnd = 20;
  auto* sender = add_pr(f, tc);
  sender->start();
  f.run_for(5);
  // RTT on this fixture is ~22.9 ms (1 + 10 ms one-way, plus
  // serialization); the decaying max can never sit below one real RTT.
  EXPECT_GE(sender->ewrtt_seconds(), 0.0225);
}

TEST(Mxrtt, InitialTimeoutBeforeFirstSample) {
  PathFixture f;
  TcpPrConfig pr;
  pr.initial_timeout = sim::Duration::seconds(2.5);
  auto* sender = add_pr(f, {}, pr);
  EXPECT_DOUBLE_EQ(sender->mxrtt().as_seconds(), 2.5);
}

TEST(Mxrtt, ScalesWithBeta) {
  for (const double beta : {1.5, 3.0, 8.0}) {
    PathFixture f;
    tcp::TcpConfig tc;
    tc.max_cwnd = 20;
    TcpPrConfig pr;
    pr.beta = beta;
    auto* sender = add_pr(f, tc, pr);
    sender->start();
    f.run_for(5);
    EXPECT_NEAR(sender->mxrtt().as_seconds(),
                beta * sender->ewrtt_seconds(), 1e-9);
  }
}

TEST(Mxrtt, BackoffIsCappedAtMax) {
  PathFixture f;
  TcpPrConfig pr;
  pr.max_backoff = sim::Duration::seconds(8);
  auto* sender = add_pr(f, {}, pr);
  f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  sender->start();
  f.run_for(120);
  ASSERT_TRUE(sender->in_backoff());
  EXPECT_LE(sender->mxrtt().as_seconds(), 8.0 + 1e-9);
}

TEST(JitterLink, CausesReorderingThatTcpPrIgnores) {
  PathFixture f(10e6, sim::Duration::millis(10));
  tcp::TcpConfig tc;
  tc.max_cwnd = 30;
  auto* sender = add_pr(f, tc);
  // +-0..20 ms of per-packet delivery jitter on a 10 ms link: heavy
  // in-path reordering, zero loss.
  f.fwd->set_jitter(sim::Duration::millis(20), sim::Rng(9));
  sender->start();
  f.run_for(15);
  EXPECT_GT(f.receiver()->stats().out_of_order, 500u);
  EXPECT_EQ(sender->stats().retransmissions, 0u);
  EXPECT_EQ(f.receiver()->stats().duplicates, 0u);
  EXPECT_GT(sender->stats().segments_acked, 5000);
}

TEST(JitterLink, SackRetransmitsSpuriouslyUnderSameJitter) {
  PathFixture f(10e6, sim::Duration::millis(10));
  tcp::TcpConfig tc;
  tc.max_cwnd = 30;
  auto* sender = f.add_flow(TcpVariant::kSack, 1, tc);
  f.fwd->set_jitter(sim::Duration::millis(20), sim::Rng(9));
  sender->start();
  f.run_for(15);
  EXPECT_GT(sender->stats().retransmissions, 10u);
  EXPECT_GT(f.receiver()->stats().duplicates, 10u);
}

TEST(Config, RejectsInvalidParameters) {
  PathFixture f;
  TcpPrConfig bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_DEATH(
      {
        core::TcpPrSender sender(*f.network, f.src, f.dst, 99,
                                 tcp::TcpConfig{}, bad_alpha);
      },
      "alpha");
  TcpPrConfig bad_beta;
  bad_beta.beta = 0.5;
  EXPECT_DEATH(
      {
        core::TcpPrSender sender(*f.network, f.src, f.dst, 99,
                                 tcp::TcpConfig{}, bad_beta);
      },
      "beta");
}

TEST(Observers, ExposeListSizes) {
  PathFixture f;
  tcp::TcpConfig tc;
  tc.max_cwnd = 10;
  auto* sender = add_pr(f, tc);
  sender->start();
  f.run_for(2);
  EXPECT_GT(sender->outstanding(), 0u);
  EXPECT_LE(sender->outstanding(), 10u);
  EXPECT_EQ(sender->memorize_size(), 0u);      // no losses
  EXPECT_EQ(sender->pending_retransmits(), 0u);
  EXPECT_EQ(sender->burst_drop_count(), 0);
}

TEST(ExtremeLoss, DropCountsDoNotLeakAcrossEpisodes) {
  // Regression for the drop-count lifecycle: the §3.2 reset forgets the
  // episode wholesale, so per-segment drop counts must not survive it.
  // Before the fix, a segment that lost two transmissions during an
  // episode kept its count across the reset and needed only one more
  // declared drop afterwards to spuriously re-enter extreme loss.
  PathFixture f;
  tcp::TcpConfig tc;
  tc.max_cwnd = 20;
  auto* sender = add_pr(f, tc);
  sender->start();
  f.run_for(3);  // warm up: estimator converged, window open

  // Victims picked on the fly: the next new segment `a` and its successor.
  // `a` loses three transmissions — the extreme-loss trigger. `a + 1`
  // loses four: two declared (and counted) inside the episode, the fourth
  // declared after the reset, where it must count as a fresh first drop.
  SeqNo victim = -1;
  std::map<SeqNo, int> tx_seen;
  f.fwd->set_drop_filter([&](const net::Packet& p) {
    if (p.type != net::PacketType::kTcpData) return false;
    if (victim < 0 && !p.tcp.is_retransmission) victim = p.tcp.seq;
    if (p.tcp.seq == victim) return tx_seen[p.tcp.seq]++ < 3;
    if (victim >= 0 && p.tcp.seq == victim + 1) {
      return tx_seen[p.tcp.seq]++ < 4;
    }
    return false;
  });
  f.run_for(12);
  f.fwd->set_drop_filter(nullptr);
  f.run_for(3);

  EXPECT_EQ(sender->stats().extreme_loss_events, 1u);
  EXPECT_FALSE(sender->in_backoff());
  EXPECT_GT(sender->stats().segments_acked, 3000);
}

TEST(DropRecord, AckPastDeclaredSegmentsRetiresThemUnsent) {
  // The path's RTT jumps from ~23 ms to ~323 ms, far above mxrtt (~69 ms),
  // and the first segment sent after the jump is lost: the flight behind
  // it is declared dropped wave after wave while its originals are still
  // on their way, the window collapses, and most declared segments wait
  // on the to-be-sent side. When the head's repair arrives, one cumulative
  // ACK covers the whole buffered flight. It must retire the declared,
  // not-yet-resent segments from the window without retransmitting them.
  PathFixture f(10e6, sim::Duration::millis(10));
  tcp::TcpConfig tc;
  tc.max_cwnd = 16;
  TcpPrConfig pr;
  pr.dupack_window_credit = false;  // keep the stalled window closed
  auto* sender = add_pr(f, tc, pr);
  sender->start();
  f.run_for(3);
  ASSERT_LT(sender->mxrtt().as_seconds(), 0.1);

  f.fwd->set_prop_delay(sim::Duration::millis(150));
  bool lost = false;
  f.fwd->set_drop_filter([&lost](const net::Packet& p) {
    if (p.type != net::PacketType::kTcpData || lost) return false;
    lost = true;
    return true;
  });
  // The cwnd listener also runs inside ACK processing, after the window
  // moved and before any segment is sent; an advance of segments_acked
  // marks those calls.
  std::size_t pending = 0;
  std::uint64_t rtx = 0;
  SeqNo acked = 0;
  std::size_t retired_unsent = 0;
  sender->set_cwnd_listener([&](sim::TimePoint, double) {
    const std::size_t p = sender->pending_retransmits();
    const std::uint64_t r = sender->stats().retransmissions;
    const SeqNo a = sender->stats().segments_acked;
    if (a > acked && r == rtx && p < pending) {
      retired_unsent = std::max(retired_unsent, pending - p);
    }
    pending = p;
    rtx = r;
    acked = a;
  });
  f.run_for(0.5);
  EXPECT_GE(retired_unsent, 8u);
  EXPECT_EQ(sender->pending_retransmits(), 0u);

  sender->set_cwnd_listener(nullptr);
  const SeqNo before = sender->stats().segments_acked;
  f.run_for(5);
  EXPECT_GT(sender->stats().segments_acked, before);  // still moving
}

TEST(DropTailBytes, ByteCapDropsIndependentlyOfPacketCap) {
  net::DropTailQueue q(1000, /*limit_bytes=*/2500);
  net::Packet big;
  big.size_bytes = 1000;
  EXPECT_TRUE(testutil::admit_copy(q, big));
  EXPECT_TRUE(testutil::admit_copy(q, big));
  EXPECT_FALSE(testutil::admit_copy(q, big));  // would exceed 2500 bytes
  net::Packet small;
  small.size_bytes = 400;
  EXPECT_TRUE(testutil::admit_copy(q, small));  // still fits
  EXPECT_EQ(q.length_bytes(), 2400u);
}

}  // namespace
}  // namespace tcppr::core
