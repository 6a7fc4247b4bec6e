// Tests for TCP-PR itself: the Newton approximation of alpha^(1/cwnd), the
// decaying-max ewrtt estimator, Table 1's window dynamics, memorize-list
// burst handling, the Section 3.2 extreme-loss backoff, and the headline
// property — immunity to persistent reordering of data and ACKs.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "core/tcp_pr.hpp"
#include "harness/experiment.hpp"
#include "harness/scenarios.hpp"
#include "test_util.hpp"

namespace tcppr::core {
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

TcpPrSender* add_pr(PathFixture& f, tcp::TcpConfig tcp_config = {},
                    TcpPrConfig pr_config = {}) {
  auto* sender = dynamic_cast<TcpPrSender*>(
      f.add_flow(TcpVariant::kTcpPr, 1, tcp_config, pr_config));
  EXPECT_NE(sender, nullptr);
  return sender;
}

// ---- Newton approximation (footnote 5) ---------------------------------

TEST(Newton, ExactForCwndOne) {
  EXPECT_DOUBLE_EQ(TcpPrSender::newton_alpha_root(0.995, 1.0, 2), 0.995);
  EXPECT_DOUBLE_EQ(TcpPrSender::newton_alpha_root(0.5, 0.5, 2), 0.5);
}

TEST(Newton, TwoIterationsCloseToExact) {
  for (const double alpha : {0.9, 0.95, 0.99, 0.995, 0.9995}) {
    for (const double cwnd : {2.0, 5.0, 17.0, 64.0, 300.0}) {
      const double exact = std::pow(alpha, 1.0 / cwnd);
      const double approx = TcpPrSender::newton_alpha_root(alpha, cwnd, 2);
      EXPECT_NEAR(approx, exact, 1e-4)
          << "alpha=" << alpha << " cwnd=" << cwnd;
    }
  }
}

TEST(Newton, ConvergesMonotonicallyWithIterations) {
  const double alpha = 0.995;
  const double cwnd = 10;
  const double exact = std::pow(alpha, 1.0 / cwnd);
  double prev_err = 1;
  for (int n = 1; n <= 4; ++n) {
    const double err =
        std::abs(TcpPrSender::newton_alpha_root(alpha, cwnd, n) - exact);
    EXPECT_LE(err, prev_err + 1e-15);
    prev_err = err;
  }
}

TEST(Newton, PerRttDecayIndependentOfCwnd) {
  // (alpha^(1/cwnd))^cwnd == alpha: the memory per RTT is cwnd-invariant.
  for (const double cwnd : {1.0, 4.0, 32.0, 128.0}) {
    const double per_ack = TcpPrSender::newton_alpha_root(0.995, cwnd, 2);
    EXPECT_NEAR(std::pow(per_ack, cwnd), 0.995, 2e-3) << cwnd;
  }
}

// ---- basic operation ----------------------------------------------------

TEST(TcpPr, CompletesFixedTransferWithoutLossCleanly) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 20;  // keep slow start below the queue limit
  auto* sender = add_pr(f, config);
  sender->set_transfer_segments(500);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(30);
  EXPECT_TRUE(done);
  EXPECT_EQ(sender->stats().retransmissions, 0u);
  EXPECT_EQ(sender->stats().cwnd_halvings, 0u);
  EXPECT_EQ(f.receiver()->stats().duplicates, 0u);
  EXPECT_EQ(sender->outstanding(), 0u);
}

TEST(TcpPr, StartsInSlowStartThenMovesToCongestionAvoidance) {
  PathFixture f;
  auto* sender = add_pr(f);
  sender->start();
  EXPECT_EQ(sender->mode(), TcpPrSender::Mode::kSlowStart);
  f.run_for(20);  // slow start overflows the queue eventually -> CA
  EXPECT_EQ(sender->mode(), TcpPrSender::Mode::kCongestionAvoidance);
  EXPECT_GE(sender->stats().cwnd_halvings, 1u);
}

TEST(TcpPr, SlowStartGrowsExponentially) {
  PathFixture f(100e6, sim::Duration::millis(50));
  auto* sender = add_pr(f);
  sender->start();
  f.run_for(0.55);  // ~5 RTTs
  EXPECT_GE(sender->cwnd(), 16.0);
}

TEST(TcpPr, EwrttTracksRoundTripTime) {
  PathFixture f(10e6, sim::Duration::millis(40));
  tcp::TcpConfig config;
  config.max_cwnd = 10;
  auto* sender = add_pr(f, config);
  sender->start();
  f.run_for(10);
  // Path RTT: 2*(1+40)ms propagation + serialization; ewrtt must sit at the
  // observed maximum, comfortably above the propagation floor.
  EXPECT_GT(sender->ewrtt_seconds(), 0.082);
  EXPECT_LT(sender->ewrtt_seconds(), 0.2);
  EXPECT_NEAR(sender->mxrtt().as_seconds(), 3 * sender->ewrtt_seconds(),
              1e-9);
}

TEST(TcpPr, SingleLossDetectedByTimerAndRepaired) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* sender = add_pr(f, config);
  drop_first_tx_of(f.fwd, {40});
  sender->start();
  f.run_for(15);
  EXPECT_GE(sender->stats().retransmissions, 1u);
  EXPECT_EQ(sender->stats().cwnd_halvings, 1u);
  EXPECT_EQ(sender->stats().extreme_loss_events, 0u);
  EXPECT_GT(sender->stats().segments_acked, 2000);
}

TEST(TcpPr, SingleLossDoesNotTriggerExtremeBackoff) {
  // Regression guard for the cumulative-ACK stall artifact: an ordinary
  // loss must never look like an "extreme loss" (Section 3.2).
  PathFixture f;
  auto* sender = add_pr(f);
  drop_first_tx_of(f.fwd, {40, 500, 2000});
  sender->start();
  f.run_for(20);
  EXPECT_EQ(sender->stats().extreme_loss_events, 0u);
  EXPECT_FALSE(sender->in_backoff());
}

TEST(TcpPr, BurstOfDropsCausesSingleHalving) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 40;
  auto* sender = add_pr(f, config);
  drop_first_tx_of(f.fwd, {60, 61, 62, 63});
  sender->start();
  f.run_for(15);
  EXPECT_EQ(sender->stats().cwnd_halvings, 1u);
  EXPECT_GE(sender->stats().retransmissions, 4u);
}

TEST(TcpPr, AblationNoMemorizeHalvesPerDrop) {
  PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 40;
  TcpPrConfig pr;
  pr.ablate_no_memorize = true;
  pr.enable_extreme_loss_handling = false;
  auto* sender = add_pr(f, config, pr);
  drop_first_tx_of(f.fwd, {60, 61, 62, 63});
  sender->start();
  f.run_for(15);
  EXPECT_GE(sender->stats().cwnd_halvings, 2u);
}

TEST(TcpPr, ExtremeLossEntersBackoffAndRecovers) {
  PathFixture f;
  auto* sender = add_pr(f);
  f.sched.schedule_at(sim::TimePoint::from_seconds(2.0), [&] {
    f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  });
  f.sched.schedule_at(sim::TimePoint::from_seconds(8.0), [&] {
    f.fwd->set_drop_filter(nullptr);
  });
  sender->start();
  f.run_for(40);
  EXPECT_GE(sender->stats().extreme_loss_events, 1u);
  EXPECT_FALSE(sender->in_backoff());       // outage over, resumed
  EXPECT_GT(sender->stats().segments_acked, 3000);
}

TEST(TcpPr, BackoffDoublesMxrttDuringOutage) {
  PathFixture f;
  auto* sender = add_pr(f);
  f.sched.schedule_at(sim::TimePoint::from_seconds(2.0), [&] {
    f.fwd->set_drop_filter([](const net::Packet&) { return true; });
  });
  sender->start();
  f.run_for(30);  // outage never lifts
  ASSERT_TRUE(sender->in_backoff());
  // mxrtt floor is 1 s and must have doubled at least twice.
  EXPECT_GE(sender->mxrtt().as_seconds(), 4.0);
  EXPECT_EQ(sender->cwnd(), 1.0);
  EXPECT_EQ(sender->mode(), TcpPrSender::Mode::kSlowStart);
}

TEST(TcpPr, RobustToHeavyAckLoss) {
  PathFixture f;
  auto* sender = add_pr(f);
  f.rev->set_loss_model(0.3, sim::Rng(5));
  sender->start();
  f.run_for(20);
  EXPECT_GT(sender->stats().segments_acked, 5000);
  EXPECT_EQ(sender->stats().extreme_loss_events, 0u);
}

TEST(TcpPr, SnapshotHalvingUsesCwndAtSendTime) {
  // With the snapshot rule, halving lands at cwnd(n)/2 even though cwnd
  // grew between the send and the (delayed) detection; the ablated variant
  // halves the inflated current value and ends up with a larger window.
  const auto final_cwnd = [](bool ablate) {
    PathFixture f(10e6, sim::Duration::millis(10));
    tcp::TcpConfig config;
    TcpPrConfig pr;
    pr.ablate_halve_current_cwnd = ablate;
    auto* sender = dynamic_cast<TcpPrSender*>(f.add_flow(
        TcpVariant::kTcpPr, 1, config, pr));
    drop_first_tx_of(f.fwd, {100});
    sender->start();
    // Stop shortly after the first halving.
    double cwnd_after = 0;
    sender->set_cwnd_listener([&](sim::TimePoint, double w) {
      if (sender->stats().cwnd_halvings == 1 && cwnd_after == 0) {
        cwnd_after = w;
      }
    });
    f.run_for(5);
    return cwnd_after;
  };
  const double faithful = final_cwnd(false);
  const double ablated = final_cwnd(true);
  ASSERT_GT(faithful, 0);
  ASSERT_GT(ablated, 0);
  // cwnd kept growing during the detection delay, so halving the current
  // value gives a strictly larger post-loss window.
  EXPECT_GT(ablated, faithful);
}

// ---- the headline property: reordering immunity -------------------------

TEST(TcpPr, NoSpuriousRetransmissionsUnderPersistentReordering) {
  harness::MultipathConfig config;
  config.variant = TcpVariant::kTcpPr;
  config.epsilon = 0;
  config.tcp.max_cwnd = 100;  // below the loss point: reordering only
  auto scenario = harness::make_multipath(config);
  scenario->sched.run_until(sim::TimePoint::from_seconds(20));
  const auto& stats = scenario->senders[0]->stats();
  const auto& rstats = scenario->receivers[0]->stats();
  EXPECT_GT(rstats.out_of_order, 1000u);  // reordering really is persistent
  // beta=3 gives ample margin over the path-RTT spread: zero unnecessary
  // retransmissions despite heavy reordering of data and ACKs.
  EXPECT_EQ(stats.retransmissions, 0u);
  EXPECT_EQ(rstats.duplicates, 0u);
}

TEST(TcpPr, OutperformsSackUnderFullMultipath) {
  const auto goodput = [](TcpVariant v) {
    harness::MultipathConfig config;
    config.variant = v;
    config.epsilon = 0;
    auto scenario = harness::make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(20));
    return scenario->receivers[0]->stats().goodput_bytes;
  };
  const auto pr = goodput(TcpVariant::kTcpPr);
  const auto sack = goodput(TcpVariant::kSack);
  EXPECT_GT(pr, 2 * sack);
}

TEST(TcpPr, MatchesSackOnSinglePath) {
  const auto goodput = [](TcpVariant v) {
    harness::MultipathConfig config;
    config.variant = v;
    config.epsilon = 500;  // shortest path only
    auto scenario = harness::make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(20));
    return static_cast<double>(
        scenario->receivers[0]->stats().goodput_bytes);
  };
  const double pr = goodput(TcpVariant::kTcpPr);
  const double sack = goodput(TcpVariant::kSack);
  EXPECT_NEAR(pr / sack, 1.0, 0.15);
}

TEST(TcpPr, ReorderedAcksDoNotHurt) {
  // ACK reordering only (data on one path): goodput must match the
  // fully-ordered baseline.
  const auto goodput = [](bool reorder_acks) {
    harness::MultipathConfig config;
    config.variant = TcpVariant::kTcpPr;
    config.epsilon = reorder_acks ? 0.0 : 500.0;
    config.multipath_acks = true;
    auto scenario = harness::make_multipath(config);
    if (reorder_acks) {
      // Pin data to the shortest path; leave ACKs on the epsilon=0 policy.
      scenario->network.node(scenario->src_host)
          .set_source_routing_policy(nullptr);
    }
    scenario->sched.run_until(sim::TimePoint::from_seconds(15));
    return static_cast<double>(
        scenario->receivers[0]->stats().goodput_bytes);
  };
  EXPECT_NEAR(goodput(true) / goodput(false), 1.0, 0.2);
}

TEST(TcpPr, LiteralNoRestampVariantStillRuns) {
  // The literal Table-1 reading (no re-stamp) must remain available and
  // functional, if less efficient after losses.
  PathFixture f;
  TcpPrConfig pr;
  pr.restamp_on_congestion_event = false;
  auto* sender = add_pr(f, {}, pr);
  drop_first_tx_of(f.fwd, {40});
  sender->start();
  f.run_for(10);
  EXPECT_GT(sender->stats().segments_acked, 500);
  EXPECT_GE(sender->stats().retransmissions, 1u);
}

TEST(TcpPr, AblatedMeanEwrttUnderestimatesSpikes) {
  // Feed both estimators the same multipath run; the mean-based ablation
  // must sit below the decaying max.
  const auto ewrtt = [](bool ablate) {
    harness::MultipathConfig config;
    config.variant = TcpVariant::kTcpPr;
    config.epsilon = 0;
    config.pr.ablate_mean_ewrtt = ablate;
    auto scenario = harness::make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(10));
    auto* sender = dynamic_cast<TcpPrSender*>(scenario->senders[0].get());
    return sender->ewrtt_seconds();
  };
  EXPECT_LT(ewrtt(true), ewrtt(false));
}

}  // namespace
}  // namespace tcppr::core
