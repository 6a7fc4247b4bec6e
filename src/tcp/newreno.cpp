#include "tcp/reno.hpp"

#include <algorithm>

namespace tcppr::tcp {

void NewRenoSender::handle_new_ack_in_recovery(SeqNo ack) {
  if (ack >= recover_) {
    dupacks_ = 0;
    exit_recovery();
    return;
  }
  // Partial ACK: retransmit the next hole, deflate by the segment acked,
  // remain in recovery (RFC 6582). Only the first partial ACK resets the
  // retransmit timer (the "Impatient" variant), so heavy-loss windows
  // escape to a timeout rather than repairing one hole per RTT forever.
  inflation_ = std::max(0.0, inflation_ - 1.0);
  retransmit(snd_una_);
  if (++partial_acks_ == 1) restart_rto_timer();
}

}  // namespace tcppr::tcp
