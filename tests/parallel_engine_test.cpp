// Parallel execution mode: the only property that matters is that the
// parallel run is *byte-identical* to the one-shard run. Every test here
// builds the same scenario several times — through harness::ParallelSim at
// different LP counts, plus (where event ties permit) the legacy
// sequential scheduler — and compares the DeliveryHasher digest (an
// order-sensitive FNV fold over every delivery event), so a single
// reordered, missing or duplicated delivery fails the run.
//
// Baselines: the canonical trajectory is the stamped single-shard run
// (lps = 1) — stamp order is partition-independent, so every LP count must
// reproduce it exactly. The legacy unstamped scheduler coincides with it
// except when two nodes schedule same-target-time events within the same
// nanosecond; topologies with distinct per-hop delays (dumbbell) are free
// of such coincidences and also assert canonical == legacy, while
// equal-delay topologies (multipath) compare against the canonical run
// only.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "harness/parallel_run.hpp"
#include "harness/partition.hpp"
#include "harness/scenarios.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "validate/determinism.hpp"
#include "validate/fuzzer.hpp"
#include "validate/invariants.hpp"

namespace tcppr {
namespace {

using harness::ParallelRunConfig;
using harness::ParallelSim;
using harness::Scenario;
using harness::TcpVariant;
using validate::DeliveryHasher;

struct RunDigest {
  std::uint64_t hash = 0;
  std::uint64_t delivered = 0;
  int realized_lps = 1;
  std::uint64_t windows = 0;
};

ParallelRunConfig lp_config(int lps) {
  ParallelRunConfig pc;
  pc.lps = lps;
  return pc;
}

// Runs `scenario` to `end` and digests its delivery stream; lps == 0 runs
// the legacy sequential scheduler, lps >= 1 runs through ParallelSim
// (stamped shards; one shard still sequential).
RunDigest run_and_digest(std::unique_ptr<Scenario> scenario,
                         sim::TimePoint end, int lps) {
  RunDigest out;
  DeliveryHasher hasher;
  scenario->network.add_trace_sink(&hasher);
  if (lps == 0) {
    scenario->sched.run_until(end);
  } else {
    ParallelSim psim(*scenario, lp_config(lps));
    out.realized_lps = psim.lp_count();
    psim.run_until(end);
    out.windows = psim.windows();
  }
  out.hash = hasher.hash();
  out.delivered = hasher.delivered();
  return out;
}

// ---------------------------------------------------------------------------
// Partitioner

TEST(Partition, DumbbellSplitsAcrossPositiveLookaheadCuts) {
  harness::DumbbellConfig cfg;
  auto s = harness::make_dumbbell(cfg);
  harness::PartitionConfig pc;
  pc.target_lps = 2;
  const harness::Partition part(s->network, pc);
  ASSERT_EQ(part.lp_count(), 2);
  EXPECT_FALSE(part.cut_links().empty());
  for (const net::Link* cut : part.cut_links()) {
    EXPECT_GT(cut->prop_delay().as_nanos(), 0);
    EXPECT_NE(part.lp_of(cut->from()), part.lp_of(cut->to()));
  }
}

TEST(Partition, ZeroDelayLinksAreNeverCut) {
  Scenario s;
  net::Network& nw = s.network;
  const auto a = nw.add_node();
  const auto b = nw.add_node();
  const auto c = nw.add_node();
  net::LinkConfig zero;
  zero.bandwidth_bps = 10e6;
  zero.delay = sim::Duration::zero();
  nw.add_duplex_link(a, b, zero);
  net::LinkConfig pos = zero;
  pos.delay = sim::Duration::millis(5);
  nw.add_duplex_link(b, c, pos);
  nw.compute_static_routes();

  harness::PartitionConfig pc;
  pc.target_lps = 3;
  const harness::Partition part(nw, pc);
  EXPECT_EQ(part.lp_of(a), part.lp_of(b));  // contracted
  EXPECT_EQ(part.lp_count(), 2);
}

TEST(Partition, SingleLpFallbackWhenNoCutExists) {
  Scenario s;
  net::Network& nw = s.network;
  const auto a = nw.add_node();
  const auto b = nw.add_node();
  net::LinkConfig zero;
  zero.bandwidth_bps = 10e6;
  zero.delay = sim::Duration::zero();
  nw.add_duplex_link(a, b, zero);
  nw.compute_static_routes();

  harness::PartitionConfig pc;
  pc.target_lps = 4;
  const harness::Partition part(nw, pc);
  EXPECT_EQ(part.lp_count(), 1);
  EXPECT_TRUE(part.cut_links().empty());

  // And ParallelSim degrades to the sequential scheduler.
  ParallelRunConfig rc;
  rc.lps = 4;
  ParallelSim psim(s, rc);
  EXPECT_FALSE(psim.parallel());
  psim.run_until(sim::TimePoint::from_seconds(0.1));
}

// ---------------------------------------------------------------------------
// Variant x topology equivalence matrix

using Topo = testutil::PaperTopo;

std::unique_ptr<Scenario> build_topo(Topo topo, TcpVariant variant) {
  return testutil::build_paper_topo(topo, variant);
}

class ParallelMatrix
    : public ::testing::TestWithParam<std::tuple<TcpVariant, Topo>> {};

TEST_P(ParallelMatrix, ParallelDigestMatchesCanonicalOneShardRun) {
  const auto [variant, topo] = GetParam();
  const auto end = sim::TimePoint::from_seconds(3.0);
  const RunDigest seq = run_and_digest(build_topo(topo, variant), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  if (topo != Topo::kMultipath) {
    // Distinct per-hop delays: no same-nanosecond cross-node ties, so the
    // canonical run must also equal the legacy sequential scheduler.
    const RunDigest legacy = run_and_digest(build_topo(topo, variant), end, 0);
    EXPECT_EQ(seq.hash, legacy.hash) << "canonical vs legacy";
    EXPECT_EQ(seq.delivered, legacy.delivered);
  }
  for (const int lps : {2, 4, 8}) {
    const RunDigest par = run_and_digest(build_topo(topo, variant), end, lps);
    EXPECT_GT(par.realized_lps, 1) << "partition degenerated";
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelMatrix,
    ::testing::Combine(::testing::ValuesIn(harness::all_variants()),
                       ::testing::Values(Topo::kDumbbell, Topo::kParkingLot,
                                         Topo::kMultipath)));

// ---------------------------------------------------------------------------
// Engine counters

TEST(ParallelCounters, ExchangedEqualsPerLpCrossPushes) {
  // One definition of "cross-LP packets": each packet a source LP pushes
  // onto a cut link is handed to its destination shard exactly once, by a
  // barrier exchange, so once the run returns the engine total equals the
  // sum of the per-LP push counts.
  auto s = harness::make_parking_lot(harness::ParkingLotConfig{});
  ParallelSim psim(*s, lp_config(4));
  psim.run_until(sim::TimePoint::from_seconds(3.0));
  std::uint64_t pushed = 0;
  for (const auto& r : psim.lp_reports()) pushed += r.cross_pushed;
  EXPECT_GT(pushed, 0u);
  EXPECT_EQ(psim.exchanged(), pushed);
}

// Engine work of one run: pump ops, LP work summed over LPs (non-carrier
// events + pump ops), scheduler events and packets delivered to agents.
struct WorkCounts {
  std::uint64_t pump_ops = 0;
  std::uint64_t lp_ops = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
};

using MakeScenario = std::function<std::unique_ptr<Scenario>()>;

WorkCounts run_work(const MakeScenario& make, int lps) {
  auto scenario = make();
  ParallelSim psim(*scenario, lp_config(lps));
  psim.run_until(sim::TimePoint::from_seconds(3.0));
  WorkCounts out;
  out.pump_ops = psim.pump_stats().ops;
  for (const auto& r : psim.lp_reports()) out.lp_ops += r.ops;
  out.events = psim.events_processed();
  out.delivered = scenario->network.conservation().delivered_to_agent;
  return out;
}

TEST(ParallelCounters, CrossLpPacketsRideTheDestinationPump) {
  // A packet crossing a cut is delivered by the destination LP's pump like
  // a local one, not by a scheduler event of its own: pump ops and summed
  // LP work are the same at every LP count, and cut runs stay under one
  // event per delivered packet.
  const std::vector<std::pair<const char*, MakeScenario>> plants = {
      {"parking-lot",
       [] { return harness::make_parking_lot(harness::ParkingLotConfig{}); }},
      {"many-flows-256",
       [] {
         harness::ManyFlowsConfig cfg;
         cfg.flows = 256;
         return harness::make_many_flows(cfg);
       }},
  };
  for (const auto& [name, make] : plants) {
    const WorkCounts one = run_work(make, 1);
    ASSERT_GT(one.pump_ops, 0u) << name;
    for (const int lps : {2, 4, 8}) {
      const WorkCounts par = run_work(make, lps);
      EXPECT_EQ(par.pump_ops, one.pump_ops) << name << " lps=" << lps;
      EXPECT_EQ(par.lp_ops, one.lp_ops) << name << " lps=" << lps;
      if (lps == 4) {
        EXPECT_LT(par.events, par.delivered) << name << " lps=4";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trace records

// Every trace record of the parking lot's first 2 s through ParallelSim on
// `lps` LPs, in the order the merged trace delivers them.
std::vector<trace::Record> parking_lot_trace(int lps) {
  trace::MemoryTrace memory;
  auto s = harness::make_parking_lot(harness::ParkingLotConfig{});
  s->network.add_trace_sink(&memory);
  ParallelSim psim(*s, lp_config(lps));
  psim.run_until(sim::TimePoint::from_seconds(2.0));
  return memory.records();
}

TEST(ParallelTrace, RecordsAndUidsMatchAtEveryLpCount) {
  // A uid is the originating node's id over its own origination count,
  // which the LP owning that node alone advances, so the merged trace is
  // the same record for record, uids included, at every LP count.
  const std::vector<trace::Record> one = parking_lot_trace(1);
  ASSERT_GT(one.size(), 10000u);
  for (const int lps : {2, 4}) {
    const std::vector<trace::Record> par = parking_lot_trace(lps);
    ASSERT_EQ(par.size(), one.size()) << "lps=" << lps;
    const auto diff = std::mismatch(par.begin(), par.end(), one.begin());
    if (diff.first != par.end()) {
      ADD_FAILURE() << "lps=" << lps << ": record "
                    << (diff.first - par.begin()) << " differs (uid "
                    << diff.first->uid << " against " << diff.second->uid
                    << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Many-flow scale path

TEST(ParallelManyFlows, DumbbellDigestMatchesSequentialAtEveryLpCount) {
  const auto make = [] {
    harness::ManyFlowsConfig cfg;
    cfg.flows = 64;
    cfg.seed = 3;
    return harness::make_many_flows(cfg);
  };
  const auto end = sim::TimePoint::from_seconds(2.0);
  const RunDigest seq = run_and_digest(make(), end, 0);  // legacy sequential
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {1, 2, 4, 8}) {
    const RunDigest par = run_and_digest(make(), end, lps);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

TEST(ParallelManyFlows, RandomGraphDigestMatchesCanonicalOneShardRun) {
  const auto make = [] {
    harness::ManyFlowsConfig cfg;
    cfg.topology = harness::ManyFlowsConfig::Topology::kRandomGraph;
    cfg.flows = 32;
    cfg.seed = 11;
    return harness::make_many_flows(cfg);
  };
  const auto end = sim::TimePoint::from_seconds(2.0);
  const RunDigest seq = run_and_digest(make(), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {2, 4}) {
    const RunDigest par = run_and_digest(make(), end, lps);
    EXPECT_GT(par.realized_lps, 1);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

// ---------------------------------------------------------------------------
// Clustered mesh: the low-lookahead plant. Cut lookahead is 100us, so
// windows are a fraction of an RTT and cross-cluster traffic crosses a
// barrier on nearly every hop.

RunDigest run_mesh(const harness::ClusteredMeshConfig& cfg, sim::TimePoint end,
                   int lps) {
  auto scenario = harness::make_clustered_mesh(cfg);
  RunDigest out;
  DeliveryHasher hasher;
  scenario->network.add_trace_sink(&hasher);
  ParallelRunConfig pc = lp_config(lps);
  pc.min_cut_lookahead = cfg.min_cut_lookahead();
  ParallelSim psim(*scenario, pc);
  out.realized_lps = psim.lp_count();
  psim.run_until(end);
  out.windows = psim.windows();
  out.hash = hasher.hash();
  out.delivered = hasher.delivered();
  return out;
}

harness::ClusteredMeshConfig mesh_config(int cross_flows) {
  harness::ClusteredMeshConfig cfg;
  cfg.clusters = 4;
  cfg.flows = 64;
  cfg.cross_flows = cross_flows;
  cfg.max_start_stagger = sim::Duration::seconds(0.3);
  return cfg;
}

TEST(ClusteredMesh, ConservativeDigestMatchesCanonicalOneShardRun) {
  const auto end = sim::TimePoint::from_seconds(1.0);
  const RunDigest seq = run_mesh(mesh_config(2), end, 1);
  ASSERT_GT(seq.delivered, 0u);
  for (const int lps : {2, 4}) {
    const RunDigest par = run_mesh(mesh_config(2), end, lps);
    EXPECT_EQ(par.realized_lps, lps);
    EXPECT_EQ(par.hash, seq.hash) << "lps=" << lps;
    EXPECT_EQ(par.delivered, seq.delivered) << "lps=" << lps;
  }
}

// ---------------------------------------------------------------------------
// Invariants under parallel execution (conservation swept at barriers)

TEST(ParallelInvariants, CheckerIsCleanAtBarriersAndTeardown) {
  harness::DumbbellConfig cfg;
  cfg.pr_flows = 2;
  cfg.sack_flows = 2;
  auto s = harness::make_dumbbell(cfg);
  validate::InvariantChecker checker(*s);
  ParallelRunConfig pc;
  pc.lps = 4;
  ParallelSim psim(*s, pc);
  ASSERT_TRUE(psim.parallel());
  psim.set_checker(&checker);
  psim.run_until(sim::TimePoint::from_seconds(3.0));
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.sweeps(), 1u);
  EXPECT_GT(psim.windows(), 0u);
  EXPECT_GT(psim.exchanged(), 0u);
}

// Every variant x topology cell of the equivalence matrix, at 4 LPs, under
// the checker: conservation (with packets riding mailboxes and waiting in
// destination pools), sender/receiver and queue invariants must hold at
// every barrier.
class ParallelInvariantMatrix
    : public ::testing::TestWithParam<std::tuple<TcpVariant, Topo>> {};

TEST_P(ParallelInvariantMatrix, CheckerIsCleanAtEveryBarrier) {
  const auto [variant, topo] = GetParam();
  auto s = build_topo(topo, variant);
  validate::InvariantChecker checker(*s);
  ParallelSim psim(*s, lp_config(4));
  ASSERT_TRUE(psim.parallel());
  psim.set_checker(&checker);
  psim.run_until(sim::TimePoint::from_seconds(3.0));
  checker.finalize();
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.sweeps(), 1u);
  EXPECT_GT(psim.exchanged(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelInvariantMatrix,
    ::testing::Combine(::testing::ValuesIn(harness::all_variants()),
                       ::testing::Values(Topo::kDumbbell, Topo::kParkingLot,
                                         Topo::kMultipath)));

// ---------------------------------------------------------------------------
// Fuzz equivalence: sampled adversarial cases (loss, jitter, flapping,
// mid-run reconfiguration, churn, telemetry, all four topologies) must
// digest identically at 2 or 4 LPs (alternating by seed) and at 1, under
// the checker on both sides. 200 seeds in 8 shards of 25, so ctest -j
// spreads the work; named *Parallel* so the TSan preset runs it.

class FuzzSeedParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeedParallelEquivalence, ParMatchesStampedBaseline) {
  constexpr int kSeedsPerShard = 25;
  const std::uint64_t first =
      1 + static_cast<std::uint64_t>(GetParam()) * kSeedsPerShard;
  for (std::uint64_t seed = first; seed < first + kSeedsPerShard; ++seed) {
    validate::FuzzCase c = validate::sample_fuzz_case(seed);
    c.par_lps = 1;  // canonical one-shard baseline (ties keyed by node)
    const validate::FuzzResult ref = validate::run_fuzz_case(c);
    EXPECT_TRUE(ref.ok) << "seed " << seed << ": " << ref.first_violation;
    c.par_lps = seed % 2 == 0 ? 2 : 4;
    const validate::FuzzResult par = validate::run_fuzz_case(c);
    EXPECT_TRUE(par.ok) << "seed " << seed << " lps " << c.par_lps << ": "
                        << par.first_violation;
    EXPECT_EQ(par.delivery_hash, ref.delivery_hash)
        << "seed " << seed << " (" << validate::describe(c) << ")";
    EXPECT_EQ(par.delivered, ref.delivered) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds1To200, FuzzSeedParallelEquivalence,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace tcppr
