// Parameterized property-style suites (TEST_P): invariants that must hold
// across sweeps of seeds, parameters, and variants.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/tcp_pr.hpp"
#include "harness/experiment.hpp"
#include "harness/scenarios.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace tcppr {
namespace {

using harness::MeasurementWindow;
using harness::MultipathConfig;
using harness::TcpVariant;

// ---- Newton approximation across the (alpha, cwnd) grid -----------------

class NewtonGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(NewtonGrid, CloseToExactPower) {
  const auto [alpha, cwnd] = GetParam();
  const double exact = std::pow(alpha, 1.0 / cwnd);
  const double approx = core::TcpPrSender::newton_alpha_root(alpha, cwnd, 2);
  // Two Newton steps from x=1 are tight near alpha~1 (the operating range,
  // footnote 5) and only approximate for aggressive alpha.
  EXPECT_NEAR(approx, exact, alpha >= 0.9 ? 2e-4 : 5e-3);
  // Result must always stay a valid decay factor.
  EXPECT_GT(approx, 0.0);
  EXPECT_LE(approx, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaCwndSweep, NewtonGrid,
    ::testing::Combine(::testing::Values(0.5, 0.8, 0.9, 0.95, 0.99, 0.995,
                                         0.9995),
                       ::testing::Values(1.0, 2.0, 3.0, 8.0, 25.0, 100.0,
                                         1000.0)));

// ---- every variant transfers correctly on a clean path ------------------

class CleanTransfer : public ::testing::TestWithParam<TcpVariant> {};

TEST_P(CleanTransfer, DeliversAllSegmentsInOrder) {
  testutil::PathFixture f;
  tcp::TcpConfig config;
  config.max_cwnd = 30;
  auto* sender = f.add_flow(GetParam(), 1, config);
  sender->set_transfer_segments(300);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(30);
  EXPECT_TRUE(done) << harness::to_string(GetParam());
  EXPECT_EQ(f.receiver()->rcv_next(), 300);
  EXPECT_EQ(sender->stats().retransmissions, 0u);
}

TEST_P(CleanTransfer, CompletesDespiteRandomLoss) {
  testutil::PathFixture f;
  auto* sender = f.add_flow(GetParam(), 1);
  f.fwd->set_loss_model(0.03, sim::Rng(11));
  sender->set_transfer_segments(1000);
  bool done = false;
  sender->set_completion_callback([&] { done = true; });
  sender->start();
  f.run_for(200);
  EXPECT_TRUE(done) << harness::to_string(GetParam());
  EXPECT_EQ(f.receiver()->rcv_next(), 1000);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CleanTransfer,
    ::testing::ValuesIn(harness::all_variants()),
    [](const ::testing::TestParamInfo<TcpVariant>& info) {
      std::string name = harness::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Every variant must also survive an ACK-path outage (cumulative ACKs
// recover the state once connectivity returns).
class AckOutage : public ::testing::TestWithParam<TcpVariant> {};

TEST_P(AckOutage, RecoversAfterReverseOutage) {
  testutil::PathFixture f;
  auto* sender = f.add_flow(GetParam(), 1);
  f.sched.schedule_at(sim::TimePoint::from_seconds(2.0), [&] {
    f.rev->set_down(true);
  });
  f.sched.schedule_at(sim::TimePoint::from_seconds(5.0), [&] {
    f.rev->set_down(false);
  });
  sender->start();
  f.run_for(40);
  EXPECT_GT(sender->stats().segments_acked, 2000)
      << harness::to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, AckOutage,
    ::testing::Values(TcpVariant::kTcpPr, TcpVariant::kSack,
                      TcpVariant::kNewReno, TcpVariant::kTahoe,
                      TcpVariant::kTdFr, TcpVariant::kIncByN,
                      TcpVariant::kDoor),
    [](const ::testing::TestParamInfo<TcpVariant>& info) {
      std::string name = harness::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- TCP-PR reordering immunity across epsilon and seeds ----------------

class PrMultipathSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(PrMultipathSweep, NoDuplicatesEverReachTheReceiver) {
  const auto [epsilon, seed] = GetParam();
  MultipathConfig config;
  config.variant = TcpVariant::kTcpPr;
  config.epsilon = epsilon;
  config.seed = seed;
  config.tcp.max_cwnd = 50;  // below the loss point: reordering only
  auto scenario = harness::make_multipath(config);
  scenario->sched.run_until(sim::TimePoint::from_seconds(12));
  // With no losses possible, a duplicate at the receiver could only come
  // from a spurious timer-detected "drop": there must be none, at any
  // reordering intensity.
  const auto& rs = scenario->receivers[0]->stats();
  const auto& ss = scenario->senders[0]->stats();
  EXPECT_EQ(rs.duplicates, 0u) << "eps=" << epsilon << " seed=" << seed;
  EXPECT_EQ(ss.retransmissions, 0u) << "eps=" << epsilon << " seed=" << seed;
  EXPECT_GT(ss.segments_acked, 2000) << "eps=" << epsilon << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonSeedGrid, PrMultipathSweep,
    ::testing::Combine(::testing::Values(0.0, 1.0, 4.0, 10.0, 500.0),
                       ::testing::Values(1u, 2u, 3u)));

// ---- alpha/beta robustness (the Figure 4 claim, miniature) --------------

class PrParamSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PrParamSweep, PrStillFunctionsAcrossParameterRanges) {
  const auto [alpha, beta] = GetParam();
  MultipathConfig config;
  config.variant = TcpVariant::kTcpPr;
  config.epsilon = 0;
  config.pr.alpha = alpha;
  config.pr.beta = beta;
  auto scenario = harness::make_multipath(config);
  scenario->sched.run_until(sim::TimePoint::from_seconds(10));
  // Functional across the whole grid: meaningful forward progress.
  EXPECT_GT(scenario->senders[0]->stats().segments_acked, 1000)
      << "alpha=" << alpha << " beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBetaGrid, PrParamSweep,
    ::testing::Combine(::testing::Values(0.25, 0.75, 0.995),
                       ::testing::Values(1.5, 3.0, 10.0)));

// ---- deterministic replay across the scenario space ---------------------

class ReplayDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayDeterminism, IdenticalSeedsIdenticalTrajectories) {
  const auto run = [&] {
    MultipathConfig config;
    config.variant = TcpVariant::kTcpPr;
    config.epsilon = 1.0;
    config.seed = GetParam();
    auto scenario = harness::make_multipath(config);
    scenario->sched.run_until(sim::TimePoint::from_seconds(8));
    return std::make_tuple(scenario->sched.processed_count(),
                           scenario->senders[0]->stats().segments_acked,
                           scenario->receivers[0]->stats().out_of_order);
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDeterminism,
                         ::testing::Values(1u, 42u, 1234567u));

// ---- RNG statistical sanity over stream ids ----------------------------

class RngStreams : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngStreams, MeanOfUniformNearHalf) {
  sim::Rng rng = sim::Rng(99).fork(GetParam());
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(StreamIds, RngStreams,
                         ::testing::Values(0u, 1u, 7u, 1000u, 999999u));

}  // namespace
}  // namespace tcppr
