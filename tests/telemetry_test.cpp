// Golden-value tests for the link-tap reordering detectors (src/telemetry):
// hand-computed permutations through the sketch and the exact monitor, slot
// contention/eviction/retirement mechanics, count-min and heavy-reorderer
// behaviour, and the churn test — taps hold a constant byte budget while
// thousands of flows arrive and depart, each folded into the aggregate
// exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "harness/scenarios.hpp"
#include "stats/reorder.hpp"
#include "telemetry/reorder_tap.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/workload.hpp"

namespace tcppr::telemetry {
namespace {

TapConfig exact_config() {
  TapConfig cfg;
  cfg.exact_baseline = true;
  return cfg;
}

void feed(ReorderTap& tap, net::FlowId flow,
          const std::vector<net::SeqNo>& seqs) {
  for (const net::SeqNo s : seqs) tap.observe(flow, s);
}

// Sketch totals == hand-computed truth == exact-baseline totals. Every
// golden case runs on a collision-free tap, where the sketch must BE exact.
void expect_golden(const std::vector<net::SeqNo>& seqs,
                   std::uint64_t reordered, std::uint64_t displacement_sum,
                   net::SeqNo max_displacement) {
  ReorderTap tap(exact_config());
  feed(tap, /*flow=*/1, seqs);
  const ReorderTap::Totals t = tap.totals();
  EXPECT_EQ(t.data_packets, seqs.size());
  EXPECT_EQ(t.reordered, reordered);
  EXPECT_EQ(t.displacement_sum, displacement_sum);
  EXPECT_EQ(t.max_displacement, max_displacement);
  EXPECT_EQ(t.collisions, 0u);
  const ReorderTap::ExactTotals ex = tap.exact_totals();
  EXPECT_EQ(ex.total, seqs.size());
  EXPECT_EQ(ex.reordered, reordered);
  EXPECT_EQ(ex.extent_sum, static_cast<double>(displacement_sum));
  EXPECT_EQ(ex.max_extent, max_displacement);
}

TEST(ReorderTapGolden, IdentityPermutationIsClean) {
  std::vector<net::SeqNo> seqs(64);
  std::iota(seqs.begin(), seqs.end(), 0);
  expect_golden(seqs, /*reordered=*/0, /*displacement_sum=*/0,
                /*max_displacement=*/0);
}

TEST(ReorderTapGolden, AdjacentSwap) {
  // 0 2 1 3: the 1 arrives after the 2 — one event, displacement 1.
  expect_golden({0, 2, 1, 3}, 1, 1, 1);
}

TEST(ReorderTapGolden, KRotation) {
  // Rotation by k: k..n-1 then 0..k-1. The tail is one late burst — every
  // element displaced by (n-1) - i against the running max n-1.
  const net::SeqNo n = 16, k = 5;
  std::vector<net::SeqNo> seqs;
  for (net::SeqNo s = k; s < n; ++s) seqs.push_back(s);
  for (net::SeqNo s = 0; s < k; ++s) seqs.push_back(s);
  std::uint64_t sum = 0;
  for (net::SeqNo s = 0; s < k; ++s) {
    sum += static_cast<std::uint64_t>(n - 1 - s);
  }
  expect_golden(seqs, static_cast<std::uint64_t>(k), sum, n - 1);
}

TEST(ReorderTapGolden, ReversedBurst) {
  // In-order prefix 0..7, then 15..8: the 15 extends the max, the other
  // seven trail it by 1..7.
  std::vector<net::SeqNo> seqs = {0, 1, 2, 3, 4, 5, 6, 7};
  for (net::SeqNo s = 15; s >= 8; --s) seqs.push_back(s);
  expect_golden(seqs, 7, 1 + 2 + 3 + 4 + 5 + 6 + 7, 7);
}

TEST(ReorderTapGolden, IstrateAlmostSorted) {
  // Istrate's almost-sorted permutations: identity perturbed by disjoint
  // adjacent transpositions. Each swap is one unit-displacement event and
  // the restoration buffer never holds more than one segment.
  const std::vector<net::SeqNo> seqs = {1, 0, 3, 2, 5, 4, 7, 6, 8, 9};
  expect_golden(seqs, 4, 4, 1);

  ReorderTap tap(exact_config());
  feed(tap, 1, seqs);
  ASSERT_EQ(tap.exact_flows().size(), 1u);
  const stats::ReorderMonitor& mon = tap.exact_flows().begin()->second;
  EXPECT_TRUE(mon.complete());
  EXPECT_EQ(mon.max_buffer_occupancy(), 1u);
  // Displacement-density histogram: four unit displacements in bucket 1
  // ([1,2)), nothing anywhere else.
  const auto& hist = tap.displacement_histogram();
  EXPECT_EQ(hist[1], 4u);
  for (std::size_t b = 0; b < ReorderTap::kHistBuckets; ++b) {
    if (b != 1) {
      EXPECT_EQ(hist[b], 0u) << "bucket " << b;
    }
  }
}

TEST(ReorderTapGolden, DuplicateOfMaxCountsWithZeroDisplacement) {
  // A duplicate of the running max is "reordered" with extent 0 (matches
  // stats::ReorderMonitor) and lands in histogram bucket 0.
  ReorderTap tap(exact_config());
  feed(tap, 1, {0, 1, 1});
  const ReorderTap::Totals t = tap.totals();
  EXPECT_EQ(t.reordered, 1u);
  EXPECT_EQ(t.displacement_sum, 0u);
  EXPECT_EQ(t.max_displacement, 0);
  EXPECT_EQ(tap.displacement_histogram()[0], 1u);
}

TEST(ReorderTap, OnDeliverTracksDataAndCountsTheRest) {
  ReorderTap tap;
  net::Packet data;
  data.type = net::PacketType::kTcpData;
  data.tcp.flow = 3;
  data.tcp.seq = 0;
  tap.on_deliver(data);
  data.tcp.seq = 2;
  tap.on_deliver(data);
  data.tcp.seq = 1;
  tap.on_deliver(data);
  net::Packet ack;
  ack.type = net::PacketType::kTcpAck;
  ack.tcp.flow = 3;
  tap.on_deliver(ack);
  const ReorderTap::Totals t = tap.totals();
  EXPECT_EQ(t.data_packets, 3u);
  EXPECT_EQ(t.other_packets, 1u);
  EXPECT_EQ(t.reordered, 1u);
  EXPECT_EQ(t.displacement_sum, 1u);
}

TEST(ReorderTap, CountMinAndHeavyListBracketDetectedEvents) {
  ReorderTap tap(exact_config());
  // Flow 1: 10 reorder events (alternating high/low). Flow 2: 2 events.
  std::vector<net::SeqNo> heavy_seqs;
  for (net::SeqNo i = 0; i < 10; ++i) {
    heavy_seqs.push_back(2 * i + 1);
    heavy_seqs.push_back(2 * i);  // trails the new max by 1
  }
  feed(tap, 1, heavy_seqs);
  feed(tap, 2, {1, 0, 3, 2});
  const ReorderTap::Totals t = tap.totals();
  ASSERT_EQ(t.reordered, 12u);
  // Count-min never under-estimates a flow and never exceeds the tap-wide
  // detected total.
  EXPECT_GE(tap.cms_estimate(1), 10u);
  EXPECT_LE(tap.cms_estimate(1), t.reordered);
  EXPECT_GE(tap.cms_estimate(2), 2u);
  const auto heavy = tap.heavy_reorderers();
  ASSERT_GE(heavy.size(), 2u);
  EXPECT_EQ(heavy.front().flow, 1);  // heaviest first
  EXPECT_GE(heavy.front().estimate, 10u);
}

TEST(ReorderTap, SlotContentionNeverOverReports) {
  // 2 slots, 16 flows: collisions are unavoidable. Whatever the slot table
  // does under contention, the declared bounds hold against exact.
  TapConfig cfg = exact_config();
  cfg.flow_slots = 2;
  cfg.max_tenure = 2;
  ReorderTap tap(cfg);
  for (net::FlowId f = 1; f <= 16; ++f) {
    feed(tap, f, {0, 2, 1, 3});  // one reorder event per fully-tracked flow
  }
  const ReorderTap::Totals t = tap.totals();
  const ReorderTap::ExactTotals ex = tap.exact_totals();
  EXPECT_EQ(t.data_packets, 64u);
  EXPECT_EQ(ex.total, 64u);
  EXPECT_GT(t.collisions, 0u);
  EXPECT_LE(t.reordered, ex.reordered);
  EXPECT_LE(static_cast<double>(t.displacement_sum), ex.extent_sum);
  EXPECT_LE(t.max_displacement, ex.max_extent);
  EXPECT_EQ(t.folded_flows, t.evictions + t.retired_folds);
}

TEST(ReorderTap, TenureEvictionFoldsTheResident) {
  // max_tenure=1: the first colliding packet evicts the resident, whose
  // counters must survive in the folded aggregate.
  TapConfig cfg;
  cfg.flow_slots = 1;  // rounds to 2
  cfg.max_tenure = 1;
  ReorderTap tap(cfg);
  for (net::FlowId f = 1; f <= 8 && tap.totals().evictions == 0; ++f) {
    feed(tap, f, {0, 2, 1});  // one unit-displacement event each
  }
  const ReorderTap::Totals t = tap.totals();
  ASSERT_GT(t.evictions, 0u);
  // Folding moved counts, it didn't lose them: every fully-tracked flow's
  // event is still in the totals.
  EXPECT_EQ(t.reordered * 1, t.displacement_sum);
  EXPECT_EQ(t.folded_flows, t.evictions);
}

TEST(ReorderTap, RetireFoldsExactlyOnceAndIsIdempotent) {
  ReorderTap tap(exact_config());
  feed(tap, 5, {0, 3, 1, 2});  // two events: displacements 2 and 1
  const ReorderTap::Totals before = tap.totals();
  EXPECT_EQ(before.reordered, 2u);

  tap.retire_flow(5);
  tap.retire_flow(5);  // sender- and receiver-side teardown both report
  const ReorderTap::Totals after = tap.totals();
  EXPECT_EQ(after.reordered, before.reordered);
  EXPECT_EQ(after.displacement_sum, before.displacement_sum);
  EXPECT_EQ(after.max_displacement, before.max_displacement);
  EXPECT_EQ(after.retired_folds, 1u);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(tap.exact_retired_folds(), 1u);
  EXPECT_TRUE(tap.exact_flows().empty());
  // The exact side folded into the departed aggregate, not the void.
  const ReorderTap::ExactTotals ex = tap.exact_totals();
  EXPECT_EQ(ex.total, 4u);
  EXPECT_EQ(ex.reordered, 2u);
  // Retiring a flow the tap never saw is a no-op.
  tap.retire_flow(77);
  EXPECT_EQ(tap.totals().retired_folds, 1u);
}

TEST(ReorderTap, SketchBytesAreFixedAtConstruction) {
  TapConfig cfg;
  cfg.flow_slots = 64;
  cfg.cms_width = 512;
  ReorderTap tap(cfg);
  const std::size_t bytes = tap.sketch_bytes();
  EXPECT_GT(bytes, 0u);
  // 10k flows, several packets each: the sketch footprint must not move.
  for (net::FlowId f = 1; f <= 10000; ++f) {
    tap.observe(f, 1);
    tap.observe(f, 0);
  }
  EXPECT_EQ(tap.sketch_bytes(), bytes);
  EXPECT_EQ(tap.totals().data_packets, 20000u);
}

TEST(ReorderMonitor, OccupancyHistogramCountsPerArrival) {
  stats::ReorderMonitor mon(16);
  // 0: buffer empty (bucket 0). 2: one buffered (bucket 1). 1: gap filled,
  // buffer drains to empty (bucket 0).
  mon.on_arrival(0);
  mon.on_arrival(2);
  mon.on_arrival(1);
  const auto& occ = mon.occupancy_histogram();
  EXPECT_EQ(occ[0], 2u);
  EXPECT_EQ(occ[1], 1u);
  EXPECT_TRUE(mon.complete());
  EXPECT_EQ(mon.buffered_now(), 0u);
  EXPECT_EQ(mon.max_seen(), 2);
  EXPECT_EQ(mon.extent_sum(), 1.0);
  // Completeness implication: no open gap => the buffer never held more
  // than max_extent distinct segments.
  EXPECT_LE(mon.max_buffer_occupancy(),
            static_cast<std::size_t>(mon.max_extent()));

  stats::ReorderMonitor agg(16);
  mon.merge_into(agg);
  EXPECT_EQ(agg.occupancy_histogram()[0], 2u);
  EXPECT_EQ(agg.occupancy_histogram()[1], 1u);
  mon.reset();
  EXPECT_EQ(mon.occupancy_histogram()[0], 0u);
}

// ---------------------------------------------------------------------------
// Churn: taps under thousands of departing flows.

TEST(TelemetryChurn, TapsHoldByteBudgetAndFoldDeparturesExactlyOnce) {
  harness::DumbbellConfig cfg;
  cfg.pr_flows = 0;
  cfg.sack_flows = 0;
  cfg.bottleneck_bw_bps = 50e6;
  cfg.access_bw_bps = 200e6;
  cfg.bottleneck_queue = 500;
  cfg.access_queue = 1000;
  auto s = harness::make_dumbbell(cfg);

  TelemetryConfig tc;
  tc.tap.exact_baseline = true;
  Telemetry telemetry(s->network, tc);
  const std::size_t bytes_before = telemetry.sketch_bytes_per_tap();

  workload::WorkloadConfig wc;
  wc.kind = workload::WorkloadKind::kPoisson;
  wc.arrival_rate = 800;
  wc.min_segments = 2;
  wc.max_segments = 16;
  wc.quarantine = sim::Duration::millis(300);
  wc.reap_idle = sim::Duration::millis(150);
  wc.reap_sweep = sim::Duration::millis(50);
  workload::WorkloadEngine engine(*s, wc);
  engine.set_telemetry(&telemetry);
  engine.start();
  s->sched.run_until(sim::TimePoint::from_seconds(5));
  engine.stop();
  s->sched.run_until(sim::TimePoint::from_seconds(8));

  const workload::WorkloadStats ws = engine.stats();
  ASSERT_GT(ws.arrivals, 2000u);
  ASSERT_EQ(ws.active, 0u);

  // Constant memory at steady state: the sketch footprint is exactly what
  // it was before the first flow existed.
  EXPECT_EQ(telemetry.sketch_bytes_per_tap(), bytes_before);
  // Departures fanned out to the taps.
  EXPECT_GT(telemetry.retire_calls(), 0u);

  const ReorderTap::Totals agg = telemetry.aggregate();
  EXPECT_GT(agg.data_packets, 0u);
  EXPECT_GT(agg.retired_folds, 0u);
  EXPECT_EQ(agg.folded_flows, agg.evictions + agg.retired_folds);

  for (std::size_t i = 0; i < telemetry.tap_count(); ++i) {
    const ReorderTap& tap = telemetry.tap(i);
    const ReorderTap::Totals t = tap.totals();
    const ReorderTap::ExactTotals ex = tap.exact_totals();
    // Declared bounds hold through thousands of fold cycles.
    EXPECT_EQ(t.data_packets, ex.total) << "tap " << i;
    EXPECT_LE(t.reordered, ex.reordered) << "tap " << i;
    EXPECT_LE(static_cast<double>(t.displacement_sum), ex.extent_sum)
        << "tap " << i;
    // Exactly-once folding on the ground-truth side too: the exact map
    // holds only never-retired flows (static scenario flows, stragglers
    // whose close was still in flight), never an entry per flow ever seen.
    EXPECT_LT(tap.exact_flows().size(), 64u) << "tap " << i;
    // Every data packet the taps on the forward path saw is in the folded
    // + live exact totals exactly once (total is conserved by merge).
    EXPECT_EQ(ex.total, t.data_packets) << "tap " << i;
  }
}

}  // namespace
}  // namespace tcppr::telemetry
