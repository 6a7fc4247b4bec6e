#include "tcp/reno.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::tcp {

RenoSender::RenoSender(net::Network& network, net::NodeId local,
                       net::NodeId remote, FlowId flow, TcpConfig config)
    : SenderBase(network, local, remote, flow, config),
      cwnd_(config.initial_cwnd),
      ssthresh_(config.max_cwnd),
      rto_(RtoEstimator::Params{config.initial_rto, config.min_rto,
                                config.max_rto}),
      rto_timer_(network.scheduler(), [this] { on_timeout(); }) {}

void RenoSender::on_start() {
  send_new_data();
  restart_rto_timer();
}

SenderInvariantView RenoSender::invariant_view() const {
  SenderInvariantView v;
  v.valid = true;
  v.cwnd = cwnd_;
  v.ssthresh = ssthresh_;
  v.ssthresh_floor = 2.0;
  v.snd_una = snd_una_;
  v.snd_nxt = snd_nxt_;
  v.window_bookkeeping = true;
  // Count only records inside the window: a go-back-N timeout rewinds
  // snd_nxt_ without releasing the records above it.
  v.tracked_in_window = tx_.sent_in(snd_una_, snd_nxt_);
  v.has_rto = true;
  v.rto = rto_.rto();
  v.min_rto = rto_.params().min;
  v.max_rto = rto_.params().max;
  v.rtx_timer_armed = rto_timer_.armed();
  v.rtx_timer_needed = started() && flight_size() > 0;
  v.rtx_timer_strict = true;
  return v;
}

double RenoSender::usable_window() const {
  const double w = std::min(cwnd_ + inflation_, config_.max_cwnd);
  return w;
}

void RenoSender::send_new_data() {
  // The timer cannot disarm while we only transmit, so the per-iteration
  // "arm if unarmed" collapses to one check hoisted past the burst scope —
  // the re-arm's scheduler op then follows the burst's, as one event.
  const bool was_armed = rto_timer_.armed();
  bool sent = false;
  {
    SenderBase::BurstScope burst(*this);
    while (static_cast<double>(flight_size()) + 1.0 <= usable_window() &&
           has_segment(snd_nxt_)) {
      // After a go-back-N timeout, "new" sends below the old snd_nxt are
      // really retransmissions; their records say so.
      const bool rtx = tx_.record_tx(snd_una_, snd_nxt_, now());
      transmit_segment(snd_nxt_, rtx, next_tx_serial_++);
      ++snd_nxt_;
      sent = true;
    }
  }
  if (sent && !was_armed) restart_rto_timer();
}

void RenoSender::retransmit(SeqNo seq) {
  tx_.record_tx(snd_una_, seq, now());
  transmit_segment(seq, /*is_retransmission=*/true, next_tx_serial_++);
}

void RenoSender::restart_rto_timer() {
  if (flight_size() <= 0) {
    rto_timer_.cancel();
    return;
  }
  rto_timer_.arm(now() + rto_.rto());
}

void RenoSender::sample_rtt(SeqNo newly_acked_up_to) {
  // Karn's rule: only sample segments transmitted exactly once; the
  // newest acknowledged segment gives the freshest estimate.
  const TxRecord& r = tx_[newly_acked_up_to - 1];
  if (r.tx_count == 1) rto_.add_sample(now() - r.last_tx);
}

void RenoSender::on_ack_packet(const net::Packet& ack) {
  const SeqNo a = ack.tcp.ack;
  if (a > snd_una_) {
    handle_new_ack(a);
  } else if (flight_size() > 0) {
    ++stats_.dupacks_received;
    handle_dupack(ack);
  }
  send_new_data();
}

void RenoSender::handle_new_ack(SeqNo ack) {
  sample_rtt(ack);
  rto_.reset_backoff();
  on_new_ack_hook();
  // Released before the recovery path, which may retransmit at the new
  // snd_una_ (NewReno's partial ACK).
  tx_.release(snd_una_, ack);
  snd_una_ = ack;
  if (in_recovery_) {
    handle_new_ack_in_recovery(ack);
  } else {
    dupacks_ = 0;
    open_window_on_ack();
  }
  note_progress(snd_una_);
  // RFC 3782 "Impatient": during recovery only the first partial ACK may
  // reset the retransmission timer, so a window with many holes escapes to
  // an RTO instead of crawling for one hole per RTT. (Classic Reno exits
  // recovery on any new ACK, so this only affects NewReno and derivates,
  // which restart the timer themselves in the partial-ACK path.)
  if (!in_recovery_) restart_rto_timer();
}

void RenoSender::handle_new_ack_in_recovery(SeqNo) {
  // Classic Reno leaves recovery on the first new ACK, whether or not it
  // covers every segment outstanding at the loss (its known weakness with
  // multiple drops per window).
  dupacks_ = 0;
  exit_recovery();
}

void RenoSender::exit_recovery() {
  in_recovery_ = false;
  inflation_ = 0;
  cwnd_ = ssthresh_;  // deflate
  notify_cwnd(cwnd_);
}

void RenoSender::open_window_on_ack() {
  if (cwnd_ < ssthresh_) {
    cwnd_ += 1;  // slow start
  } else {
    cwnd_ += 1.0 / cwnd_;  // congestion avoidance
  }
  cwnd_ = std::min(cwnd_, config_.max_cwnd);
  notify_cwnd(cwnd_);
}

void RenoSender::handle_dupack(const net::Packet&) {
  ++dupacks_;
  if (in_recovery_) {
    inflation_ += 1;  // window inflation per extra dupack
    return;
  }
  if (dupacks_ >= config_.dupthresh) {
    enter_fast_recovery();
  } else if (config_.limited_transmit) {
    // RFC 3042: the first two dupacks each release one new segment.
    inflation_ = std::min(dupacks_, 2);
  }
}

void RenoSender::enter_fast_recovery() {
  ++stats_.fast_retransmits;
  ++stats_.cwnd_halvings;
  in_recovery_ = true;
  partial_acks_ = 0;
  recover_ = snd_nxt_;
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0);
  cwnd_ = ssthresh_;
  inflation_ = static_cast<double>(dupacks_);
  retransmit(snd_una_);
  restart_rto_timer();
  notify_cwnd(cwnd_);
}

void RenoSender::on_timeout() {
  if (flight_size() <= 0) return;
  ++stats_.timeouts;
  TCPPR_LOG_DEBUG("reno", "flow %d timeout, snd_una=%lld", flow(),
                  static_cast<long long>(snd_una_));
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0);
  cwnd_ = 1;
  inflation_ = 0;
  dupacks_ = 0;
  in_recovery_ = false;
  rto_.back_off();
  // Go back N (ns-2 style): resend from the cumulative ACK point. The
  // window re-send happens through send_new_data(), whose tx_count check
  // marks these as retransmissions.
  snd_nxt_ = snd_una_;
  send_new_data();
  restart_rto_timer();
  notify_cwnd(cwnd_);
}

}  // namespace tcppr::tcp
