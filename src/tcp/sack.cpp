#include "tcp/sack.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::tcp {

SackSender::SackSender(net::Network& network, net::NodeId local,
                       net::NodeId remote, FlowId flow, TcpConfig config)
    : SenderBase(network, local, remote, flow, config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.max_cwnd),
      dupthresh_(config.dupthresh),
      rto_(RtoEstimator::Params{config.initial_rto, config.min_rto,
                                config.max_rto}),
      rto_timer_(network.scheduler(), [this] { on_timeout(); }) {}

void SackSender::on_start() {
  send_more();
  restart_rto_timer();
}

SenderInvariantView SackSender::invariant_view() const {
  SenderInvariantView v;
  v.valid = true;
  v.cwnd = cwnd_;
  v.ssthresh = ssthresh_;
  v.ssthresh_floor = 2.0;
  v.snd_una = snd_una_;
  v.snd_nxt = snd_nxt_;
  v.window_bookkeeping = true;
  v.tracked_in_window = tx_.sent_in(snd_una_, snd_nxt_);
  v.has_rto = true;
  v.rto = rto_.rto();
  v.min_rto = rto_.params().min;
  v.max_rto = rto_.params().max;
  v.rtx_timer_armed = rto_timer_.armed();
  v.rtx_timer_needed = started() && snd_nxt_ > snd_una_;
  v.rtx_timer_strict = true;
  // Scoreboard structure (RFC 3517): every mark lives inside the window,
  // a segment is never both SACKed and lost, only lost segments can have
  // retransmissions in flight, and each running count matches a recount.
  std::int64_t sacked = 0, lost = 0, rtx = 0;
  for (SeqNo s = snd_una_; s < tx_.max(); ++s) {
    const int m = tx_[s].marks;
    const bool is_lost = (m & kLost) != 0;
    sacked += (m & kSacked) != 0;
    lost += is_lost;
    rtx += (m & kRtxInFlight) != 0;
    if ((m != 0 && s >= snd_nxt_) || (is_lost && (m & kSacked) != 0) ||
        (!is_lost && (m & kRtxInFlight) != 0)) {
      v.scoreboard_ok = false;
    }
  }
  v.scoreboard_ok = v.scoreboard_ok && sacked == tx_.count(kSacked) &&
                    lost == tx_.count(kLost) && rtx == tx_.count(kRtxInFlight);
  return v;
}

int SackSender::effective_dupthresh() const {
  // Never below 3 (RFC 5681); never so high that the window cannot
  // generate enough dupacks, which would force an RTO ([3]'s cap).
  const double cap = std::max(3.0, cwnd_ - 1.0);
  return static_cast<int>(std::lround(
      std::clamp(dupthresh_, 3.0, cap)));
}

double SackSender::pipe() const {
  // RFC 3517 SetPipe via the mark counts: segments in flight that are
  // neither SACKed nor marked lost, plus retransmissions in flight.
  // Against a receiver that never sends SACK blocks, each duplicate ACK
  // stands in for one delivered-but-unidentified segment (Linux's "reno
  // sack" emulation) — without it the pipe never drains during recovery
  // and the retransmission cannot be clocked out.
  const double range = static_cast<double>(snd_nxt_ - snd_una_);
  double pipe = range - static_cast<double>(tx_.count(kSacked)) -
                static_cast<double>(tx_.count(kLost)) +
                static_cast<double>(tx_.count(kRtxInFlight));
  if (!peer_sends_sack_) {
    pipe -= static_cast<double>(dupacks_);
  }
  return std::max(pipe, 0.0);
}

void SackSender::update_scoreboard(const net::Packet& ack) {
  if (!ack.tcp.sack.empty()) peer_sends_sack_ = true;
  for (const auto& block : ack.tcp.sack) {
    const SeqNo lo = std::max(block.begin, snd_una_);
    const SeqNo hi = std::min(block.end, snd_nxt_);
    for (SeqNo s = lo; s < hi; ++s) {
      if (!tx_.has(s, kSacked)) {
        tx_.unmark(s, kLost | kRtxInFlight);
        tx_.mark(s, kSacked);
        highest_sacked_ = std::max(highest_sacked_, s);
      }
    }
  }
}

void SackSender::mark_lost_by_sack() {
  if (highest_sacked_ < snd_una_) return;
  if (!in_recovery_ && !mark_losses_outside_recovery()) return;
  const SeqNo gap = effective_dupthresh();
  for (SeqNo s = snd_una_; s + gap <= highest_sacked_; ++s) {
    if (!tx_.has(s, kSacked)) tx_.mark(s, kLost);
  }
}

bool SackSender::loss_detected() const {
  return dupacks_ >= effective_dupthresh() || tx_.count(kLost) > 0;
}

void SackSender::on_ack_packet(const net::Packet& ack) {
  // Spurious-retransmit detection from the DSACK option (RFC 2883/3708).
  if (process_dsack_ && ack.tcp.dsack.has_value()) {
    const SeqNo s = ack.tcp.dsack->begin;
    const auto it = recent_rtx_.find(s);
    if (it != recent_rtx_.end()) {
      // The receiver saw the segment twice and we retransmitted it: the
      // retransmission was unnecessary. The reordering extent estimate is
      // the largest dupack run observed around the episode (the DSACK
      // usually lands after the episode has closed).
      const int extent = std::max({episode_dupacks_, last_episode_dupacks_,
                                   it->second.episode_dupacks});
      recent_rtx_.erase(it);
      ++stats_.spurious_retransmits_detected;
      on_spurious_retransmit(s, extent);
    }
  }

  update_scoreboard(ack);

  const SeqNo a = ack.tcp.ack;
  if (a > snd_una_) {
    // RTT sample (Karn's rule) before the tx records are released.
    if (tx_[a - 1].tx_count == 1) rto_.add_sample(now() - tx_[a - 1].last_tx);
    rto_.reset_backoff();
    if (probe_) probe_.rto(now(), rto_.rto().as_seconds());
    advance_una(a);
    on_new_ack_hook(ack);
    if (in_recovery_) {
      if (a >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        dupacks_ = 0;
        last_episode_dupacks_ = episode_dupacks_;
        episode_dupacks_ = 0;
        notify_cwnd(cwnd_);
      }
      // Partial ACK: scoreboard-driven retransmission continues below.
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += 1;
      } else {
        cwnd_ += 1.0 / cwnd_;
      }
      cwnd_ = std::min(cwnd_, config_.max_cwnd);
      notify_cwnd(cwnd_);
    }
    restart_rto_timer();
  } else if (snd_nxt_ > snd_una_) {
    ++stats_.dupacks_received;
    ++dupacks_;
    ++episode_dupacks_;
    on_dupack_hook(ack);
  }

  mark_lost_by_sack();
  if (!in_recovery_ && snd_nxt_ > snd_una_ && loss_detected()) {
    enter_recovery();
  }
  send_more();
  if (probe_) probe_.outstanding(now(), pipe());
}

void SackSender::advance_una(SeqNo ack) {
  tx_.release(snd_una_, ack);
  snd_una_ = ack;
  // DSACKs for a retransmission typically arrive after the cumulative ACK
  // has passed it, so spurious-detection records outlive the window by a
  // margin before being pruned.
  constexpr SeqNo kRtxHistory = 4096;
  if (snd_una_ > kRtxHistory) {
    recent_rtx_.erase(recent_rtx_.begin(),
                      recent_rtx_.lower_bound(snd_una_ - kRtxHistory));
  }
  note_progress(snd_una_);
}

void SackSender::enter_recovery() {
  ++stats_.fast_retransmits;
  ++stats_.cwnd_halvings;
  saved_cwnd_ = cwnd_;
  saved_ssthresh_ = ssthresh_;
  in_recovery_ = true;
  recover_ = snd_nxt_;
  const double flight = std::max(pipe(), 1.0);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = ssthresh_;
  // The segment at the ACK point is the presumed loss.
  if (!tx_.has(snd_una_, kSacked)) tx_.mark(snd_una_, kLost);
  if (probe_) {
    probe_.ssthresh(now(), ssthresh_);
    probe_.drop_declared(now());
  }
  notify_cwnd(cwnd_);
}

void SackSender::undo_last_reduction(bool full_restore) {
  // [3] (footnote 3): rather than jumping straight back, restore ssthresh
  // to the pre-reduction window so the sender slow-starts up to it. Eifel
  // restores both (full_restore).
  ssthresh_ = std::max(ssthresh_, saved_cwnd_);
  if (full_restore) cwnd_ = std::max(cwnd_, saved_cwnd_);
  if (in_recovery_) {
    in_recovery_ = false;
    dupacks_ = 0;
    last_episode_dupacks_ = episode_dupacks_;
    episode_dupacks_ = 0;
  }
  // The loss marks of this episode were wrong; forget them.
  tx_.unmark_all(snd_una_, kLost | kRtxInFlight);
  if (probe_) probe_.ssthresh(now(), ssthresh_);
  notify_cwnd(cwnd_);
}

void SackSender::retransmit(SeqNo seq) {
  tx_.record_tx(snd_una_, seq, now());
  recent_rtx_[seq] = RtxRecord{now(), episode_dupacks_};
  transmit_segment(seq, /*is_retransmission=*/true, next_tx_serial_++);
}

void SackSender::send_more() {
  // As in RenoSender::send_new_data: transmitting never disarms the
  // timer, so the per-iteration "arm if unarmed" hoists past the burst.
  const bool was_armed = rto_timer_.armed();
  bool sent = false;
  {
    SenderBase::BurstScope burst(*this);
    const double window = std::min(cwnd_, config_.max_cwnd);
    while (pipe() + 1.0 <= window) {
      // NextSeg (RFC 3517): lost-and-not-yet-retransmitted first, then new.
      // Retransmissions in flight are lost segments too, so equal counts
      // leave nothing to scan for.
      std::optional<SeqNo> rtx;
      if (tx_.count(kLost) > tx_.count(kRtxInFlight)) {
        for (SeqNo s = snd_una_; s < snd_nxt_ && !rtx; ++s) {
          if (tx_.has(s, kLost) && !tx_.has(s, kRtxInFlight)) rtx = s;
        }
      }
      if (rtx.has_value()) {
        tx_.mark(*rtx, kRtxInFlight);
        retransmit(*rtx);
      } else if (has_segment(snd_nxt_)) {
        // A go-back-N resend finds its earlier transmission recorded.
        const bool is_rtx = tx_.record_tx(snd_una_, snd_nxt_, now());
        if (is_rtx) recent_rtx_[snd_nxt_] = RtxRecord{now(), episode_dupacks_};
        transmit_segment(snd_nxt_, is_rtx, next_tx_serial_++);
        ++snd_nxt_;
      } else {
        break;
      }
      sent = true;
    }
  }
  if (sent && !was_armed) restart_rto_timer();
}

void SackSender::restart_rto_timer() {
  if (snd_nxt_ <= snd_una_) {
    rto_timer_.cancel();
    return;
  }
  rto_timer_.arm(now() + rto_.rto());
}

void SackSender::on_timeout() {
  if (snd_nxt_ <= snd_una_) return;
  ++stats_.timeouts;
  TCPPR_LOG_DEBUG("sack", "flow %d timeout at una=%lld", flow(),
                  static_cast<long long>(snd_una_));
  ssthresh_ = std::max(pipe() / 2.0, 2.0);
  cwnd_ = 1;
  dupacks_ = 0;
  episode_dupacks_ = 0;
  in_recovery_ = false;
  // ns-2 sack1 clears the scoreboard on timeout; go-back-N from snd_una_.
  // The transmission records stay, so the resends count as retransmissions.
  tx_.unmark_all(snd_una_, kAllMarks);
  highest_sacked_ = -1;
  snd_nxt_ = snd_una_;
  rto_.back_off();
  if (probe_) {
    probe_.ssthresh(now(), ssthresh_);
    probe_.rto(now(), rto_.rto().as_seconds());
    probe_.drop_declared(now());
  }
  send_more();
  restart_rto_timer();
  notify_cwnd(cwnd_);
}

void SackSender::on_spurious_retransmit(SeqNo seq, int reorder_extent) {
  (void)seq;
  (void)reorder_extent;
  // Plain TCP-SACK takes no action; subclasses respond.
}

}  // namespace tcppr::tcp
