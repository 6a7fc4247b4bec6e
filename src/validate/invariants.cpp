#include "validate/invariants.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "core/tcp_pr.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hash.hpp"

namespace tcppr::validate {

namespace {

// Tolerance for floating-point window arithmetic (cwnd grows by 1/cwnd).
constexpr double kEps = 1e-9;

__attribute__((format(printf, 1, 2))) std::string format(const char* fmt,
                                                         ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(harness::Scenario& scenario, Config config)
    : scenario_(scenario), config_(config), timer_(scenario.sched) {
  for (const auto& s : scenario_.senders) register_sender(s.get());
  for (const auto& s : scenario_.cross_senders) register_sender(s.get());
  for (const auto& r : scenario_.receivers) register_receiver(r.get());
  for (const auto& r : scenario_.cross_receivers) register_receiver(r.get());
}

void InvariantChecker::register_sender(const tcp::SenderBase* sender) {
  SenderState st;
  st.sender = sender;
  st.pr = dynamic_cast<const core::TcpPrSender*>(sender);
  st.flow = sender->flow();
  if (st.pr != nullptr) {
    // Arm the in-algorithm deadline oracle.
    const_cast<core::TcpPrSender*>(st.pr)->enable_validation();
  }
  senders_.push_back(st);
}

void InvariantChecker::register_receiver(tcp::Receiver* receiver) {
  receiver->enable_delivery_validation();
  ReceiverState st;
  st.receiver = receiver;
  st.flow = receiver->flow();
  // Validate deliveries from this point on: take the receiver's current
  // fold as the baseline and extend it independently.
  st.last_rcv_next = receiver->rcv_next();
  st.hashed_to = receiver->rcv_next();
  st.expected_hash = receiver->delivered_hash();
  receivers_.push_back(st);
}

void InvariantChecker::start() { sweep(); }

void InvariantChecker::check_now() {
  check_conservation();
  for (const SenderState& s : senders_) check_sender(s);
  for (ReceiverState& r : receivers_) check_receiver(r);
  check_telemetry();
  ++sweeps_;
}

void InvariantChecker::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  tap_prev_.assign(telemetry != nullptr ? telemetry->tap_count() : 0,
                   TapSnapshot{});
}

void InvariantChecker::check_telemetry() {
  if (telemetry_ == nullptr) return;
  for (std::size_t i = 0; i < telemetry_->tap_count(); ++i) {
    const telemetry::ReorderTap& tap = telemetry_->tap(i);
    const telemetry::ReorderTap::Totals t = tap.totals();

    // Monotone counters: totals() must never lose counts across sweeps —
    // folding moves them into the aggregate, it doesn't drop them.
    TapSnapshot& prev = tap_prev_[i];
    if (t.data_packets < prev.data_packets || t.reordered < prev.reordered ||
        t.displacement_sum < prev.displacement_sum ||
        t.folded_flows < prev.folded_flows) {
      add_violation(format(
          "telemetry tap %zu: totals moved backwards (data %llu->%llu "
          "reordered %llu->%llu disp %llu->%llu folds %llu->%llu)",
          i, static_cast<unsigned long long>(prev.data_packets),
          static_cast<unsigned long long>(t.data_packets),
          static_cast<unsigned long long>(prev.reordered),
          static_cast<unsigned long long>(t.reordered),
          static_cast<unsigned long long>(prev.displacement_sum),
          static_cast<unsigned long long>(t.displacement_sum),
          static_cast<unsigned long long>(prev.folded_flows),
          static_cast<unsigned long long>(t.folded_flows)));
    }
    prev = {t.data_packets, t.reordered, t.displacement_sum, t.folded_flows};

    // Exactly-once folding arithmetic.
    if (t.folded_flows != t.evictions + t.retired_folds) {
      add_violation(format(
          "telemetry tap %zu: folded_flows %llu != evictions %llu + "
          "retired %llu",
          i, static_cast<unsigned long long>(t.folded_flows),
          static_cast<unsigned long long>(t.evictions),
          static_cast<unsigned long long>(t.retired_folds)));
    }

    // Count-min bracket: each heavy-hitter estimate can over-count a flow
    // but never exceeds the tap-wide detected total.
    for (const auto& h : tap.heavy_reorderers()) {
      if (h.estimate > t.reordered) {
        add_violation(format(
            "telemetry tap %zu: count-min estimate %llu for flow %d above "
            "tap total %llu",
            i, static_cast<unsigned long long>(h.estimate), h.flow,
            static_cast<unsigned long long>(t.reordered)));
      }
    }

    if (!tap.exact_baseline_enabled()) continue;
    const telemetry::ReorderTap::ExactTotals ex = tap.exact_totals();
    // Data packets are counted before the slot table can reject them, so
    // sketch and exact agree exactly.
    if (t.data_packets != ex.total) {
      add_violation(format(
          "telemetry tap %zu: sketch data_packets %llu != exact %llu", i,
          static_cast<unsigned long long>(t.data_packets),
          static_cast<unsigned long long>(ex.total)));
    }
    // One-sided bounds: a slot's running max is a lower bound on the
    // flow's true running max, so the sketch never over-reports.
    if (t.reordered > ex.reordered) {
      add_violation(format(
          "telemetry tap %zu: sketch reordered %llu above exact %llu", i,
          static_cast<unsigned long long>(t.reordered),
          static_cast<unsigned long long>(ex.reordered)));
    }
    if (static_cast<double>(t.displacement_sum) > ex.extent_sum + 1e-6) {
      add_violation(format(
          "telemetry tap %zu: sketch displacement sum %llu above exact %.1f",
          i, static_cast<unsigned long long>(t.displacement_sum),
          ex.extent_sum));
    }
    if (t.max_displacement > ex.max_extent) {
      add_violation(format(
          "telemetry tap %zu: sketch max displacement %lld above exact %lld",
          i, static_cast<long long>(t.max_displacement),
          static_cast<long long>(ex.max_extent)));
    }
    // Collision-free taps tracked every flow from its first packet: the
    // sketch IS the exact answer.
    if (t.collisions == 0 &&
        (t.reordered != ex.reordered ||
         static_cast<double>(t.displacement_sum) != ex.extent_sum ||
         t.max_displacement != ex.max_extent)) {
      add_violation(format(
          "telemetry tap %zu: collision-free sketch disagrees with exact "
          "(reordered %llu vs %llu, disp %llu vs %.1f, max %lld vs %lld)",
          i, static_cast<unsigned long long>(t.reordered),
          static_cast<unsigned long long>(ex.reordered),
          static_cast<unsigned long long>(t.displacement_sum), ex.extent_sum,
          static_cast<long long>(t.max_displacement),
          static_cast<long long>(ex.max_extent)));
    }
    // RFC 5236 flavour occupancy invariant on the exact side: a flow whose
    // arrival stream has no open gap never buffered more segments than its
    // largest reorder extent (each buffered segment is a distinct integer
    // in an interval of width max_extent).
    for (const auto& [flow, mon] : tap.exact_flows()) {
      if (mon.complete() &&
          mon.max_buffer_occupancy() >
              static_cast<std::size_t>(mon.max_extent())) {
        add_violation(format(
            "telemetry tap %zu flow %d: complete stream buffered %zu > "
            "max extent %lld",
            i, flow, mon.max_buffer_occupancy(),
            static_cast<long long>(mon.max_extent())));
      }
    }
  }
}

void InvariantChecker::sweep() {
  check_now();
  timer_.schedule_in(config_.sweep_interval, [this] { sweep(); });
}

void InvariantChecker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  timer_.cancel();
  check_now();
}

void InvariantChecker::add_violation(std::string what) {
  ++total_violations_;
  if (violations_.size() < config_.max_violations) {
    violations_.push_back({scenario_.sched.now(), std::move(what)});
  }
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += format("t=%.6f %s\n", v.time.as_seconds(), v.what.c_str());
  }
  if (total_violations_ > violations_.size()) {
    out += format("(+%llu more violations)\n",
                  static_cast<unsigned long long>(total_violations_ -
                                                  violations_.size()));
  }
  return out;
}

void InvariantChecker::check_conservation() {
  auto snap = scenario_.network.conservation();
  // Packets on links and in queues, before the parallel harness adds the
  // ones riding cut-link mailboxes (held by value, outside every pool).
  const std::uint64_t link_held = snap.in_queues + snap.in_transit;
  if (external_in_flight_) snap.in_transit += external_in_flight_();
  if (!snap.balanced()) {
    add_violation(format(
        "conservation: originated=%llu != accounted=%llu (delivered=%llu "
        "unroutable=%llu link_lost=%llu queue_dropped=%llu in_queues=%llu "
        "in_transit=%llu)",
        static_cast<unsigned long long>(snap.originated),
        static_cast<unsigned long long>(snap.accounted()),
        static_cast<unsigned long long>(snap.delivered_to_agent),
        static_cast<unsigned long long>(snap.unroutable),
        static_cast<unsigned long long>(snap.link_lost),
        static_cast<unsigned long long>(snap.queue_dropped),
        static_cast<unsigned long long>(snap.in_queues),
        static_cast<unsigned long long>(snap.in_transit)));
  }
  // Pool occupancy: between events every checked-out slot holds a packet
  // that is queued or on a link (sender bursts are empty), so a leaked or
  // double-held slot breaks the equality.
  if (snap.live != link_held) {
    add_violation(format(
        "pool occupancy: live=%llu != queued + on-link=%llu",
        static_cast<unsigned long long>(snap.live),
        static_cast<unsigned long long>(link_held)));
  }
}

void InvariantChecker::check_sender(const SenderState& s) {
  const tcp::SenderInvariantView v = s.sender->invariant_view();
  if (!v.valid) return;
  const char* algo = s.sender->algorithm();
  if (v.cwnd < 1.0 - kEps) {
    add_violation(
        format("flow %d (%s): cwnd %.9f < 1", s.flow, algo, v.cwnd));
  }
  if (v.ssthresh < v.ssthresh_floor - kEps) {
    add_violation(format("flow %d (%s): ssthresh %.9f below floor %.1f",
                         s.flow, algo, v.ssthresh, v.ssthresh_floor));
  }
  if (v.snd_una > v.snd_nxt) {
    add_violation(format("flow %d (%s): snd_una %lld > snd_nxt %lld", s.flow,
                         algo, static_cast<long long>(v.snd_una),
                         static_cast<long long>(v.snd_nxt)));
  }
  if (v.window_bookkeeping &&
      v.tracked_in_window != v.snd_nxt - v.snd_una) {
    add_violation(format(
        "flow %d (%s): outstanding bookkeeping %lld != snd_nxt-snd_una %lld",
        s.flow, algo, static_cast<long long>(v.tracked_in_window),
        static_cast<long long>(v.snd_nxt - v.snd_una)));
  }
  if (v.has_rto && (v.rto < v.min_rto || v.rto > v.max_rto)) {
    add_violation(format("flow %d (%s): RTO %.6f outside [%.6f, %.6f]",
                         s.flow, algo, v.rto.as_seconds(),
                         v.min_rto.as_seconds(), v.max_rto.as_seconds()));
  }
  if (v.rtx_timer_needed && !v.rtx_timer_armed) {
    add_violation(format(
        "flow %d (%s): data outstanding but retransmit timer not armed",
        s.flow, algo));
  }
  if (v.rtx_timer_strict && v.rtx_timer_armed && !v.rtx_timer_needed) {
    add_violation(format(
        "flow %d (%s): retransmit timer armed with nothing outstanding",
        s.flow, algo));
  }
  if (!v.scoreboard_ok) {
    add_violation(
        format("flow %d (%s): scoreboard inconsistent", s.flow, algo));
  }
  if (s.pr != nullptr) {
    const auto p = s.pr->pr_invariant_view();
    if (p.mxrtt_s + 1e-12 < p.ewrtt_s) {
      add_violation(format(
          "flow %d (tcp-pr): mxrtt %.9f < ewrtt %.9f (backoff=%d)", s.flow,
          p.mxrtt_s, p.ewrtt_s, p.in_backoff ? 1 : 0));
    }
    if (p.early_drop_declarations != 0) {
      add_violation(format(
          "flow %d (tcp-pr): %llu drop(s) declared before the mxrtt deadline",
          s.flow,
          static_cast<unsigned long long>(p.early_drop_declarations)));
    }
  }
}

void InvariantChecker::check_receiver(ReceiverState& r) {
  const tcp::Receiver& rx = *r.receiver;
  if (rx.rcv_next() < r.last_rcv_next) {
    add_violation(format(
        "flow %d receiver: cumulative ACK moved backwards (%lld -> %lld)",
        r.flow, static_cast<long long>(r.last_rcv_next),
        static_cast<long long>(rx.rcv_next())));
  }
  r.last_rcv_next = rx.rcv_next();

  // SACK block structure: every block non-empty and above the cumulative
  // ACK point; blocks pairwise disjoint.
  std::vector<net::SackBlock> blocks = rx.sack_blocks();
  std::sort(blocks.begin(), blocks.end(),
            [](const net::SackBlock& a, const net::SackBlock& b) {
              return a.begin < b.begin;
            });
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].begin >= blocks[i].end) {
      add_violation(format("flow %d receiver: empty SACK block [%lld, %lld)",
                           r.flow, static_cast<long long>(blocks[i].begin),
                           static_cast<long long>(blocks[i].end)));
    }
    if (blocks[i].begin < rx.rcv_next()) {
      add_violation(format(
          "flow %d receiver: SACK block [%lld, %lld) below cumack %lld",
          r.flow, static_cast<long long>(blocks[i].begin),
          static_cast<long long>(blocks[i].end),
          static_cast<long long>(rx.rcv_next())));
    }
    if (i > 0 && blocks[i - 1].end > blocks[i].begin) {
      add_violation(format(
          "flow %d receiver: overlapping SACK blocks [%lld, %lld) and "
          "[%lld, %lld)",
          r.flow, static_cast<long long>(blocks[i - 1].begin),
          static_cast<long long>(blocks[i - 1].end),
          static_cast<long long>(blocks[i].begin),
          static_cast<long long>(blocks[i].end)));
    }
  }

  // End-to-end payload checksum: extend the independent expectation to the
  // current in-order point and compare folds.
  while (r.hashed_to < rx.rcv_next()) {
    r.expected_hash = util::fnv1a_u64(r.expected_hash,
                                      util::payload_word(r.flow, r.hashed_to));
    ++r.hashed_to;
  }
  if (r.expected_hash != rx.delivered_hash()) {
    add_violation(format(
        "flow %d receiver: payload checksum mismatch at rcv_next %lld "
        "(expected %016llx, got %016llx)",
        r.flow, static_cast<long long>(rx.rcv_next()),
        static_cast<unsigned long long>(r.expected_hash),
        static_cast<unsigned long long>(rx.delivered_hash())));
  }
}

}  // namespace tcppr::validate
