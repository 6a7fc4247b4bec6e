// Golden trajectories: committed delivery hashes and fingerprints that
// every change must reproduce, so "hashes unchanged" is a tier-1 fact
// instead of a by-hand comparison against the parent commit.
//
// Each row holds the DeliveryHasher digest (an order-sensitive fold over
// every delivery) plus a fingerprint: packets delivered to agents,
// originated, dropped at queues, and the static senders' retransmissions.
// The rows (tests/golden_trajectories.inc):
//   - the 12 variants x dumbbell / parking lot / multipath at 2 s, each
//     with a plain hash (the build scheduler, insertion-order ties) and a
//     stamped hash (ParallelSim, which must reproduce it at 1, 2 and 4 LPs);
//   - the plants behind the four perfbench workloads at short durations,
//     configured as in perfbench/src/workloads.cpp, at seed 1;
//   - fuzz seeds 1-200 and the churning seeds 301-324 (churn forced on).
//
// A mismatch prints the replacement row. A change that moves a trajectory
// on purpose pastes the printed rows into the table and says why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "harness/parallel_run.hpp"
#include "harness/scenarios.hpp"
#include "test_util.hpp"
#include "validate/determinism.hpp"
#include "validate/fuzzer.hpp"
#include "workload/workload.hpp"

namespace tcppr {
namespace {

using harness::TcpVariant;
using testutil::PaperTopo;

struct Fingerprint {
  std::uint64_t hash = 0;
  std::uint64_t delivered = 0;
  std::uint64_t originated = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t retransmissions = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct PaperRow {
  const char* name;
  Fingerprint plain;
  Fingerprint stamped;
};

struct NamedRow {
  const char* name;
  Fingerprint fp;
};

struct SeedRow {
  std::uint64_t seed;
  Fingerprint fp;
};

#include "golden_trajectories.inc"

std::string format(const Fingerprint& f) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{0x%016" PRIx64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 "}",
                f.hash, f.delivered, f.originated, f.queue_dropped,
                f.retransmissions);
  return buf;
}

template <typename Row, std::size_t N, typename Pred>
const Row* find_row(const Row (&rows)[N], Pred pred) {
  for (const Row& r : rows) {
    if (pred(r)) return &r;
  }
  return nullptr;
}

Fingerprint fingerprint(const harness::Scenario& s,
                        const validate::DeliveryHasher& hasher) {
  const net::Network::ConservationSnapshot cons = s.network.conservation();
  Fingerprint f;
  f.hash = hasher.hash();
  f.delivered = hasher.delivered();
  f.originated = cons.originated;
  f.queue_dropped = cons.queue_dropped;
  for (const auto* senders : {&s.senders, &s.cross_senders}) {
    for (const auto& snd : *senders) {
      f.retransmissions += snd->stats().retransmissions;
    }
  }
  return f;
}

// Runs `s` to `end`: on the build scheduler when lps == 0, otherwise
// through ParallelSim on `lps` stamped shards.
Fingerprint run(harness::Scenario& s, double end_s, int lps) {
  validate::DeliveryHasher hasher;
  s.network.add_trace_sink(&hasher);
  const auto end = sim::TimePoint::from_seconds(end_s);
  if (lps == 0) {
    s.sched.run_until(end);
  } else {
    harness::ParallelRunConfig pc;
    pc.lps = lps;
    harness::ParallelSim psim(s, pc);
    psim.run_until(end);
  }
  return fingerprint(s, hasher);
}

// ---------------------------------------------------------------------------
// The paper's topologies, every variant

struct PaperCell {
  TcpVariant variant;
  PaperTopo topo;
};

std::string cell_name(const PaperCell& c) {
  std::string name = std::string(harness::to_string(c.variant)) + "_" +
                     testutil::to_string(c.topo);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

std::vector<PaperCell> paper_cells() {
  std::vector<PaperCell> cells;
  for (const TcpVariant v : harness::all_variants()) {
    for (const PaperTopo t : {PaperTopo::kDumbbell, PaperTopo::kParkingLot,
                              PaperTopo::kMultipath}) {
      cells.push_back(PaperCell{v, t});
    }
  }
  return cells;
}

class GoldenPaper : public ::testing::TestWithParam<PaperCell> {};

TEST_P(GoldenPaper, PlainAndStampedTrajectoriesHold) {
  constexpr double kSeconds = 2.0;
  const PaperCell cell = GetParam();
  const std::string name = cell_name(cell);
  auto plain_scenario = testutil::build_paper_topo(cell.topo, cell.variant);
  const Fingerprint plain = run(*plain_scenario, kSeconds, 0);
  auto stamped_scenario = testutil::build_paper_topo(cell.topo, cell.variant);
  const Fingerprint stamped = run(*stamped_scenario, kSeconds, 1);
  EXPECT_GT(plain.delivered, 0u);
  for (const int lps : {2, 4}) {
    auto s = testutil::build_paper_topo(cell.topo, cell.variant);
    EXPECT_EQ(format(run(*s, kSeconds, lps)), format(stamped))
        << name << " at " << lps << " LPs";
  }
  const PaperRow* row = find_row(
      kPaperRows, [&](const PaperRow& r) { return name == r.name; });
  if (row == nullptr || !(row->plain == plain) || !(row->stamped == stamped)) {
    ADD_FAILURE() << "golden row " << name << " changed; replacement row:\n"
                  << "    {\"" << name << "\", " << format(plain) << ", "
                  << format(stamped) << "},";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Trajectories, GoldenPaper, ::testing::ValuesIn(paper_cells()),
    [](const ::testing::TestParamInfo<PaperCell>& info) {
      return cell_name(info.param);
    });

// ---------------------------------------------------------------------------
// The perfbench workloads' plants at short durations, seed 1

constexpr std::uint64_t kPlantSeed = 1;

Fingerprint run_plant(std::string_view name) {
  std::unique_ptr<harness::Scenario> s;
  double seconds = 3.0;
  int lps = 0;
  if (name == "multipath_pr") {
    harness::MultipathConfig c;
    c.variant = TcpVariant::kTcpPr;
    c.epsilon = 0;
    c.link_delay = sim::Duration::millis(60);
    c.seed = kPlantSeed;
    s = harness::make_multipath(c);
    seconds = 60.0;
  } else if (name == "churn_10k") {
    harness::DumbbellConfig c;
    c.pr_flows = 0;
    c.sack_flows = 0;
    c.bottleneck_bw_bps = 40e6 * 10;
    c.access_bw_bps = 4 * c.bottleneck_bw_bps;
    c.bottleneck_queue = 500;
    c.access_queue = 1000;
    c.seed = kPlantSeed;
    s = harness::make_dumbbell(c);
  } else {
    harness::ManyFlowsConfig c;
    c.flows = 4096;
    c.seed = kPlantSeed;
    s = harness::make_many_flows(c);
    if (name == "dumbbell_4096_par2") lps = 2;
  }
  validate::DeliveryHasher hasher;
  s->network.add_trace_sink(&hasher);
  std::unique_ptr<harness::ParallelSim> psim;
  if (lps > 0) {
    harness::ParallelRunConfig pc;
    pc.lps = lps;
    psim = std::make_unique<harness::ParallelSim>(*s, pc);
  }
  std::unique_ptr<workload::WorkloadEngine> engine;
  if (name == "churn_10k") {
    workload::WorkloadConfig wc;
    wc.kind = workload::WorkloadKind::kPoisson;
    wc.arrival_rate = 10000;
    wc.min_segments = 2;
    wc.max_segments = 4;
    wc.quarantine = sim::Duration::millis(300);
    wc.reap_idle = sim::Duration::millis(150);
    wc.reap_sweep = sim::Duration::millis(50);
    wc.max_concurrent = 8192;
    wc.id_slots = 1 << 15;
    wc.seed = kPlantSeed;
    engine = std::make_unique<workload::WorkloadEngine>(*s, wc, psim.get());
    engine->start();
  }
  const auto end = sim::TimePoint::from_seconds(seconds);
  if (psim) {
    psim->run_until(end);
  } else {
    s->sched.run_until(end);
  }
  const Fingerprint f = fingerprint(*s, hasher);
  if (engine) engine->stop();
  return f;
}

class GoldenPlant : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenPlant, TrajectoryHolds) {
  const std::string name = GetParam();
  const Fingerprint f = run_plant(name);
  EXPECT_GT(f.delivered, 0u);
  const NamedRow* row = find_row(
      kPlantRows, [&](const NamedRow& r) { return name == r.name; });
  if (row == nullptr || !(row->fp == f)) {
    ADD_FAILURE() << "golden row " << name << " changed; replacement row:\n"
                  << "    {\"" << name << "\", " << format(f) << "},";
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, GoldenPlant,
                         ::testing::Values("dumbbell_4096", "multipath_pr",
                                           "churn_10k", "dumbbell_4096_par2"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Fuzz seeds, four per test

constexpr int kSeedsPerTest = 4;

template <std::size_t N>
void expect_seed_rows(const SeedRow (&rows)[N], std::uint64_t first,
                      bool churning) {
  for (std::uint64_t seed = first; seed < first + kSeedsPerTest; ++seed) {
    const validate::FuzzCase c = churning
                                     ? testutil::churning_fuzz_case(seed)
                                     : validate::sample_fuzz_case(seed);
    const validate::FuzzResult r = validate::run_fuzz_case(c);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.first_violation;
    const Fingerprint f{r.delivery_hash, r.delivered, r.originated,
                        r.queue_dropped, r.retransmissions};
    const SeedRow* row =
        find_row(rows, [&](const SeedRow& s) { return s.seed == seed; });
    if (row == nullptr || !(row->fp == f)) {
      ADD_FAILURE() << (churning ? "churning " : "") << "fuzz seed " << seed
                    << " changed; replacement row:\n"
                    << "    {" << seed << ", " << format(f) << "},";
    }
  }
}

class GoldenFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GoldenFuzz, SampledSeedsHold) {
  expect_seed_rows(kFuzzRows,
                   1 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerTest,
                   /*churning=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds1To200, GoldenFuzz,
                         ::testing::Range(0, 200 / kSeedsPerTest));

class GoldenChurnFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GoldenChurnFuzz, ChurningSeedsHold) {
  expect_seed_rows(kChurnRows,
                   301 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerTest,
                   /*churning=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds301To324, GoldenChurnFuzz,
                         ::testing::Range(0, 24 / kSeedsPerTest));

}  // namespace
}  // namespace tcppr
