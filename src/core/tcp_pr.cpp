#include "core/tcp_pr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::core {

std::vector<std::string> TcpPrConfig::validate() const {
  std::vector<std::string> errors;
  const auto add = [&errors](const char* rule, double value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s, got %g", rule, value);
    errors.emplace_back(buf);
  };
  // The negated forms also reject NaN.
  if (!(alpha > 0 && alpha < 1)) add("alpha must be in (0, 1)", alpha);
  if (!(beta >= 1)) add("beta must be >= 1", beta);
  if (newton_iterations < 1) {
    add("newton_iterations must be >= 1", newton_iterations);
  }
  return errors;
}

TcpPrSender::TcpPrSender(net::Network& network, net::NodeId local,
                         net::NodeId remote, FlowId flow,
                         tcp::TcpConfig config, TcpPrConfig pr_config)
    : SenderBase(network, local, remote, flow, config),
      pr_(pr_config),
      cwnd_(config.initial_cwnd),
      ssthr_(config.max_cwnd),
      drop_timer_(network.scheduler(), [this] { on_drop_timer(); }),
      unblock_timer_(network.scheduler(), [this] { flush_cwnd(); }) {
  TCPPR_CHECK(pr_.alpha > 0 && pr_.alpha < 1);
  TCPPR_CHECK(pr_.beta >= 1);
  TCPPR_CHECK(pr_.newton_iterations >= 1);
}

double TcpPrSender::newton_alpha_root(double alpha, double cwnd,
                                      int iterations) {
  // Footnote 5: solve x^cwnd = alpha starting from x = 1.
  if (cwnd <= 1.0) return alpha;
  double x = 1.0;
  for (int i = 0; i < iterations; ++i) {
    x = (cwnd - 1.0) / cwnd * x +
        alpha / (cwnd * std::pow(x, cwnd - 1.0));
  }
  return x;
}

sim::Duration TcpPrSender::mxrtt() const {
  if (in_backoff_) return sim::Duration::seconds(backoff_mxrtt_s_);
  if (ewrtt_s_ <= 0) return pr_.initial_timeout;
  return sim::Duration::seconds(pr_.beta * ewrtt_s_);
}

void TcpPrSender::update_ewrtt(sim::Duration sample) {
  const double s = sample.as_seconds();
  const double w = std::max(cwnd_, 1.0);
  if (pr_.ablate_mean_ewrtt) {
    // Ablation: EWMA of the mean with the same per-RTT memory. Vulnerable
    // to RTT spikes (the reason the paper tracks a decaying max instead).
    const double decay = newton_alpha_root(pr_.alpha, w, pr_.newton_iterations);
    ewrtt_s_ = ewrtt_s_ <= 0 ? s : decay * ewrtt_s_ + (1.0 - decay) * s;
    return;
  }
  const double decay = newton_alpha_root(pr_.alpha, w, pr_.newton_iterations);
  ewrtt_s_ = std::max(decay * ewrtt_s_, s);  // eq. (1)
}

void TcpPrSender::on_start() { flush_cwnd(); }

tcp::SenderInvariantView TcpPrSender::invariant_view() const {
  tcp::SenderInvariantView v;
  v.valid = true;
  v.cwnd = cwnd_;
  v.ssthresh = ssthr_;
  v.ssthresh_floor = 1.0;  // §3.1 halving floors at one segment
  v.snd_una = stats_.segments_acked;
  v.snd_nxt = next_new_;
  // TCP-PR splits its flight into to-be-ack and to-be-sent segments; the
  // cumulative window identity does not apply. Structural consistency of
  // the flat window is checked here instead: every slot of
  // [snd_una, snd_nxt) is exactly one of the two, memorize flags only
  // to-be-ack slots, the counters match the flags, and no to-be-sent slot
  // hides below the scan hint.
  v.window_bookkeeping = false;
  v.has_rto = false;  // loss detection is mxrtt-based, no RFC 2988 state
  v.rtx_timer_armed = drop_timer_.armed() || unblock_timer_.armed();
  v.rtx_timer_needed = to_be_ack_count_ > 0 || to_be_sent_count_ > 0;
  v.rtx_timer_strict = false;  // the unblock timer may outlive its backoff
  std::size_t to_be_ack = 0;
  std::size_t to_be_sent = 0;
  std::size_t memorized = 0;
  bool ok = true;
  for (SeqNo s = stats_.segments_acked; s < next_new_; ++s) {
    const std::uint8_t f = window_[s].flags;
    const bool in_flight = (f & kToBeAck) != 0;
    const bool pending = (f & kToBeSent) != 0;
    if (in_flight == pending) ok = false;
    if ((f & kMemorize) != 0 && !in_flight) ok = false;
    if (pending && s < rtx_hint_) ok = false;
    to_be_ack += in_flight ? 1 : 0;
    to_be_sent += pending ? 1 : 0;
    memorized += (f & kMemorize) != 0 ? 1 : 0;
  }
  v.scoreboard_ok = ok && to_be_ack == to_be_ack_count_ &&
                    to_be_sent == to_be_sent_count_ &&
                    memorized == memorize_count_;
  return v;
}

void TcpPrSender::send_one(SeqNo seq) {
  if (seq == next_new_) {  // first transmission: the window grows by one
    window_.reserve(stats_.segments_acked, next_new_, seq);
    window_[seq] = Slot{};
  }
  Slot& slot = window_[seq];
  const bool is_rtx = (slot.flags & kToBeSent) != 0;
  if (is_rtx) --to_be_sent_count_;
  slot.stamp = now();
  slot.transmitted = now();
  slot.cwnd_at_send = cwnd_;
  slot.flags = kToBeAck | (is_rtx ? kRetransmission : 0);
  ++to_be_ack_count_;
  deadlines_.push_back(Deadline{slot.stamp, seq});
  transmit_segment(seq, is_rtx, next_tx_serial_++);
}

void TcpPrSender::restamp(SeqNo seq) {
  window_[seq].stamp = now();
  deadlines_.push_back(Deadline{now(), seq});
}

bool TcpPrSender::live_deadline_front() {
  // Drop stale entries (acked packets, declared drops, superseded stamps).
  while (!deadlines_.empty()) {
    const Deadline& d = deadlines_.front();
    if (d.seq >= stats_.segments_acked && d.seq < next_new_) {
      const Slot& slot = window_[d.seq];
      if ((slot.flags & kToBeAck) != 0 && slot.stamp == d.stamp) return true;
    }
    deadlines_.drop_front();
  }
  return false;
}

SeqNo TcpPrSender::lowest_to_be_sent() {
  TCPPR_DCHECK(to_be_sent_count_ > 0);
  SeqNo s = std::max(rtx_hint_, stats_.segments_acked);
  while ((window_[s].flags & kToBeSent) == 0) ++s;
  rtx_hint_ = s;
  return s;
}

void TcpPrSender::flush_cwnd() {
  if (now() < send_blocked_until_) {
    // Extreme-loss pause (§3.2): resume exactly when the block lifts.
    unblock_timer_.arm(send_blocked_until_);
    return;
  }
  {
    // One burst per window flush: head repair and the window loop stage
    // their segments, the scope exit originates them as one burst, and the
    // single drop-timer re-arm below already follows the whole loop.
    SenderBase::BurstScope burst(*this);
    // Head repair runs outside the window check (like fast retransmit): the
    // lowest pending retransmission is the cumulative-ACK blocker, and the
    // stalled flight behind it must never be able to lock it out. Every
    // slot below the lowest to-be-sent one is in flight, so the head is the
    // blocker exactly when it sits at snd_una.
    if (to_be_sent_count_ > 0) {
      const SeqNo head = lowest_to_be_sent();
      if (head == stats_.segments_acked) send_one(head);
    }

    // Table 1: while cwnd > |to-be-ack|, send the smallest pending seq.
    // Dupack credits subtract segments known to have left the network (see
    // TcpPrConfig::dupack_window_credit).
    for (;;) {
      std::size_t outstanding = to_be_ack_count_;
      if (pr_.dupack_window_credit) {
        outstanding -= std::min<std::size_t>(
            outstanding, static_cast<std::size_t>(dup_credits_));
      }
      if (!(cwnd_ > static_cast<double>(outstanding))) break;
      if (to_be_sent_count_ > 0) {
        send_one(lowest_to_be_sent());
      } else if (has_segment(next_new_)) {
        send_one(next_new_);
        ++next_new_;
      } else {
        break;
      }
    }
  }
  rearm_drop_timer();
}

void TcpPrSender::rearm_drop_timer() {
  if (!live_deadline_front()) {
    drop_timer_.cancel();
    return;
  }
  const sim::TimePoint deadline = deadlines_.front().stamp + mxrtt();
  // Re-armed on every ack; the deadline normally only moves later (the
  // head-of-line send time advances), so this is DeadlineTimer's no-cancel
  // fast path. Only an mxrtt decay that outpaces the head's progress — or
  // leaving backoff — moves it earlier and pays a cancel.
  drop_timer_.arm(std::max(deadline, now()));
}

bool TcpPrSender::declaration_deferred(SeqNo seq) const {
  // While a congestion episode is being repaired (cumulative ACK below the
  // recovery point, NewReno-style), only the memorize snapshot and already
  // repaired-and-lost segments may be declared. Segments first sent after
  // the halving share the cumulative-ACK stall but carry no information
  // about it; declaring them would masquerade as a fresh congestion event.
  if (pr_.ablate_no_memorize) return false;  // ablation: react per drop
  const Slot& slot = window_[seq];
  return !in_backoff_ && stats_.segments_acked < recover_point_ &&
         (slot.flags & kMemorize) == 0 && slot.drops == 0;
}

void TcpPrSender::on_drop_timer() {
  // Declare drops for every packet whose deadline has passed.
  while (live_deadline_front()) {
    const Deadline d = deadlines_.front();
    if (d.stamp + mxrtt() > now()) break;
    if (declaration_deferred(d.seq)) {
      // Push the deadline one round out; the episode normally resolves
      // (and acknowledges this packet) well before it expires again. The
      // superseded front entry is skipped on the next pass.
      restamp(d.seq);
      continue;
    }
    handle_drop(d.seq);
  }
  flush_cwnd();  // also re-arms the timer
}

void TcpPrSender::handle_drop(SeqNo seq) {
  Slot& slot = window_[seq];
  TCPPR_CHECK((slot.flags & kToBeAck) != 0);
  const Slot info = slot;
  // Deadline oracle: a drop may only be declared once the packet has been
  // outstanding for the full mxrtt envelope (Table 1 drop-detected gate).
  if (validate_ && now() < info.stamp + mxrtt()) {
    ++early_drop_declarations_;
  }
  // to-be-ack -> to-be-sent, leaving memorize for the cases below.
  slot.flags = static_cast<std::uint8_t>((slot.flags & kMemorize) | kToBeSent);
  --to_be_ack_count_;
  if (to_be_sent_count_ == 0 || seq < rtx_hint_) rtx_hint_ = seq;
  ++to_be_sent_count_;
  const auto unmemorize = [&] {
    if ((slot.flags & kMemorize) == 0) return false;
    slot.flags &= static_cast<std::uint8_t>(~kMemorize);
    --memorize_count_;
    return true;
  };
  TCPPR_LOG_DEBUG("tcp-pr", "flow %d drop detected seq %lld", flow(),
                  static_cast<long long>(seq));
  if (probe_) probe_.drop_declared(now());

  if (in_backoff_) {
    // §3.2: while cwnd == 1 after an extreme-loss reset, further drops
    // double mxrtt instead of halving — the usual exponential backoff.
    unmemorize();
    backoff_mxrtt_s_ =
        std::min(2.0 * backoff_mxrtt_s_, pr_.max_backoff.as_seconds());
    send_blocked_until_ = now() + mxrtt();
    if (memorize_count_ == 0) cburst_ = 0;
    return;
  }

  const int drops_of_seq = ++slot.drops;
  if (pr_.enable_extreme_loss_handling &&
      pr_.extreme_loss_on_lost_retransmission &&
      drops_of_seq >= pr_.extreme_loss_rtx_drops) {
    // Repeated repairs of the same segment were lost — the situation in
    // which NewReno/SACK fast recovery stalls into a coarse timeout (see
    // TcpPrConfig).
    unmemorize();
    enter_extreme_loss(seq);
    return;
  }

  const bool was_memorized = unmemorize();
  if (!was_memorized || pr_.ablate_no_memorize) {
    // First drop of a new congestion event: snapshot the outstanding
    // packets and halve from the cwnd in force when `seq` was sent.
    if (!pr_.ablate_no_memorize) {
      memorize_count_ = 0;
      for (SeqNo s = stats_.segments_acked; s < next_new_; ++s) {
        Slot& out = window_[s];
        out.flags &= static_cast<std::uint8_t>(~kMemorize);
        if ((out.flags & kToBeAck) == 0) continue;
        out.flags |= kMemorize;
        ++memorize_count_;
        // See TcpPrConfig::restamp_on_congestion_event.
        if (pr_.restamp_on_congestion_event) restamp(s);
      }
      burst_snapshot_size_ = memorize_count_;
    }
    recover_point_ = next_new_;
    episode_started_ = now();
    const double basis =
        pr_.ablate_halve_current_cwnd ? cwnd_ : info.cwnd_at_send;
    TCPPR_LOG_DEBUG("tcp-pr",
                    "flow %d halving on seq %lld (rtx=%d basis=%.1f)", flow(),
                    static_cast<long long>(seq),
                    (info.flags & kRetransmission) != 0 ? 1 : 0, basis);
    // The snapshot rule reduces to cwnd(n)/2 — but a window that grew past
    // the snapshot during the detection delay must never be *raised* by a
    // "halving".
    cwnd_ = std::min(cwnd_, std::max(1.0, basis / 2.0));
    ssthr_ = cwnd_;
    mode_ = Mode::kCongestionAvoidance;
    ++stats_.cwnd_halvings;
    if (probe_) probe_.ssthresh(now(), ssthr_);
    notify_cwnd(cwnd_);
  } else {
    // Part of an already-handled burst: no further halving, but count it
    // toward the extreme-loss condition.
    ++cburst_;
    // §3.2 counter rule ("half or more packets lost within a window"),
    // measured against the burst snapshot; see
    // TcpPrConfig::extreme_loss_on_burst_count.
    // The episode-age gate mirrors the 1 s floor of the coarse timeout the
    // rule emulates: NewReno/SACK cannot reach an RTO faster than min_rto,
    // so neither may this counter (multi-hole repairs shorter than that
    // are routine fast-recovery business).
    if (pr_.enable_extreme_loss_handling && pr_.extreme_loss_on_burst_count &&
        now() - episode_started_ >= pr_.extreme_loss_floor &&
        static_cast<double>(cburst_) >
            static_cast<double>(burst_snapshot_size_) / 2.0 + 1.0) {
      enter_extreme_loss(seq);
      return;
    }
  }
  if (memorize_count_ == 0) cburst_ = 0;
}

void TcpPrSender::enter_extreme_loss(SeqNo seq) {
  (void)seq;
  ++stats_.extreme_loss_events;
  ++stats_.timeouts;  // comparable to a NewReno/SACK coarse timeout
  TCPPR_LOG_DEBUG("tcp-pr", "flow %d extreme loss (cburst=%d)", flow(),
                  cburst_);
  cwnd_ = 1.0;
  mode_ = Mode::kSlowStart;
  // ssthr_ keeps the value set at the start of the burst (half the
  // pre-burst window), mirroring NewReno's post-timeout ssthresh.
  //
  // Emulating the coarse timeout fully means forgetting the in-flight
  // window (go-back-N): everything outstanding returns to the to-be-sent
  // side; whatever the receiver already has is cleaned out by the
  // cumulative ACKs that follow the first repair.
  //
  // The reset forgets the loss episode wholesale, and the per-segment drop
  // counts with it: every outstanding segment goes back to the to-be-sent
  // side, so a drop of its *next* transmission is a fresh event, not
  // attempt N of this episode. Keeping the counts would let two separate
  // episodes accumulate toward extreme_loss_rtx_drops and spuriously
  // re-trigger the backoff right after recovery. Closing the recovery
  // window (recover_point_) matches: NewReno leaves fast recovery on a
  // coarse timeout, and a stale open episode would otherwise defer drop
  // declarations for segments whose counts were just erased.
  for (SeqNo s = stats_.segments_acked; s < next_new_; ++s) {
    Slot& out = window_[s];
    out.flags = kToBeSent;
    out.drops = 0;
  }
  to_be_sent_count_ += to_be_ack_count_;
  to_be_ack_count_ = 0;
  memorize_count_ = 0;
  rtx_hint_ = stats_.segments_acked;
  deadlines_.clear();
  recover_point_ = stats_.segments_acked;
  cburst_ = 0;
  dup_credits_ = 0;
  in_backoff_ = true;
  backoff_mxrtt_s_ = std::max(pr_.extreme_loss_floor.as_seconds(),
                              pr_.beta * ewrtt_s_);
  send_blocked_until_ = now() + mxrtt();
  if (probe_) {
    probe_.extreme_loss(now());
    probe_.backoff(now(), true);
    probe_.mxrtt(now(), mxrtt().as_seconds());
  }
  notify_cwnd(cwnd_);
}

void TcpPrSender::on_ack_packet(const net::Packet& ack) {
  const SeqNo a = ack.tcp.ack;
  const SeqNo una = stats_.segments_acked;

  if (a <= una) {
    // Duplicate ACK: never a loss signal, but proof that one segment
    // reached the receiver — worth one window credit.
    if (pr_.dupack_window_credit && to_be_ack_count_ > 0) {
      ++dup_credits_;
      if (probe_) probe_.dup_credits(now(), dup_credits_);
      flush_cwnd();
    }
    return;
  }
  TCPPR_CHECK(a <= next_new_);  // a receiver cannot ack unsent data

  // Every newly acknowledged segment leaves the window (cumulative ACK
  // semantics), and with it its to-be-ack or to-be-sent and memorize
  // flags and its drop record.
  bool any = false;
  sim::TimePoint newest_send;
  for (SeqNo s = una; s < a; ++s) {
    const Slot& out = window_[s];
    if ((out.flags & kToBeAck) != 0) {
      if (!any || out.transmitted > newest_send) newest_send = out.transmitted;
      any = true;
      --to_be_ack_count_;
    } else {
      --to_be_sent_count_;
    }
    if ((out.flags & kMemorize) != 0) --memorize_count_;
  }
  dup_credits_ = 0;
  if (memorize_count_ == 0) cburst_ = 0;

  // Table 1 lines 13-14: sample from the newest in-flight copy this ACK
  // covers. An ACK covering only declared (to-be-sent) segments yields no
  // sample, so when a lost head stalls the whole flight ewrtt cannot learn
  // an RTT above mxrtt.
  if (any) update_ewrtt(now() - newest_send);

  if (in_backoff_) {
    in_backoff_ = false;
    backoff_mxrtt_s_ = 0;
    send_blocked_until_ = now();
    if (probe_) probe_.backoff(now(), false);
  }

  note_progress(a);
  window_.shrink_to_fit(stats_.segments_acked, next_new_);

  // Table 1 lines 17-20: window growth.
  if (mode_ == Mode::kSlowStart) {
    if (cwnd_ + 1.0 <= ssthr_) {
      cwnd_ += 1.0;
    } else {
      mode_ = Mode::kCongestionAvoidance;
      cwnd_ += 1.0 / cwnd_;
    }
  } else {
    cwnd_ += 1.0 / cwnd_;
  }
  cwnd_ = std::min(cwnd_, config_.max_cwnd);
  notify_cwnd(cwnd_);

  if (probe_) {
    // One estimator snapshot per ACK: the cwnd/ewrtt/mxrtt time series the
    // paper's figures are drawn from.
    probe_.ewrtt(now(), ewrtt_s_);
    probe_.mxrtt(now(), mxrtt().as_seconds());
    probe_.outstanding(now(), to_be_ack_count_);
    probe_.dup_credits(now(), dup_credits_);
  }

  flush_cwnd();
}

}  // namespace tcppr::core
