#include "tcp/receiver.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::tcp {

Receiver::Receiver(net::Network& network, net::NodeId local,
                   net::NodeId remote, FlowId flow, ReceiverConfig config)
    : network_(network),
      local_(local),
      remote_(remote),
      flow_(flow),
      config_(config),
      delack_timer_(network.scheduler()) {
  network_.node(local_).attach_agent(flow_, this);
}

Receiver::~Receiver() { network_.node(local_).detach_agent(flow_); }

void Receiver::set_metric_registry(obs::MetricRegistry& registry) {
  probe_ = obs::FlowProbe(registry, flow_);
  if (probe_) {
    const sim::TimePoint t = sched().now();
    probe_.rcv_next(t, static_cast<double>(rcv_next_));
    probe_.ooo_buffered(t, static_cast<double>(buffered_));
  }
}

void Receiver::deliver(net::Packet&& pkt) {
  if (pkt.type == net::PacketType::kTcpClose) {
    if (close_cb_) close_cb_();
    return;
  }
  if (pkt.type != net::PacketType::kTcpData) return;  // stray ACK etc.
  on_data(pkt);
}

std::uint32_t Receiver::new_run(SeqNo begin, SeqNo end) {
  std::uint32_t r = run_free_;
  if (r == kNoRun) {
    r = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
  } else {
    run_free_ = runs_[r].next;
  }
  runs_[r] = Run{begin, end, kNoRun, kNoRun};
  return r;
}

void Receiver::unlink_run(std::uint32_t r) {
  Run& run = runs_[r];
  if (run.prev != kNoRun) {
    runs_[run.prev].next = run.next;
  } else {
    run_head_ = run.next;
  }
  if (run.next != kNoRun) runs_[run.next].prev = run.prev;
}

void Receiver::free_run(std::uint32_t r) {
  unlink_run(r);
  runs_[r].next = run_free_;
  run_free_ = r;
}

void Receiver::push_front_run(std::uint32_t r) {
  runs_[r].prev = kNoRun;
  runs_[r].next = run_head_;
  if (run_head_ != kNoRun) runs_[run_head_].prev = r;
  run_head_ = r;
}

void Receiver::buffer_segment(SeqNo seq) {
  // Join the runs ending at seq - 1 and starting at seq + 1, if any, then
  // move the result to the front (RFC 2018 wants the block containing the
  // most recently received segment first).
  present_.reserve(rcv_next_, buffered_end_, seq);
  const std::uint32_t left =
      is_buffered(seq - 1) ? present_[seq - 1] - 1 : kNoRun;
  const std::uint32_t right =
      is_buffered(seq + 1) ? present_[seq + 1] - 1 : kNoRun;
  buffered_end_ = std::max(buffered_end_, seq + 1);
  ++buffered_;
  std::uint32_t r;
  if (left != kNoRun) {
    r = left;
    unlink_run(r);
    if (right != kNoRun) {
      runs_[r].end = runs_[right].end;
      free_run(right);
    } else {
      runs_[r].end = seq + 1;
    }
  } else if (right != kNoRun) {
    r = right;
    unlink_run(r);
    runs_[r].begin = seq;
  } else {
    r = new_run(seq, seq + 1);
  }
  present_[seq] = r + 1;
  present_[runs_[r].begin] = r + 1;
  present_[runs_[r].end - 1] = r + 1;
  push_front_run(r);
}

std::vector<net::SackBlock> Receiver::sack_blocks() const {
  std::vector<net::SackBlock> blocks;
  for (std::uint32_t r = run_head_; r != kNoRun; r = runs_[r].next) {
    blocks.push_back(net::SackBlock{runs_[r].begin, runs_[r].end});
  }
  return blocks;
}

void Receiver::on_data(const net::Packet& pkt) {
  ++stats_.data_packets_received;
  if (data_tap_) data_tap_(pkt);
  const SeqNo seq = pkt.tcp.seq;

  bool duplicate = false;
  if (seq < rcv_next_ || is_buffered(seq)) {
    duplicate = true;
    ++stats_.duplicates;
  } else if (seq == rcv_next_) {
    if (delivery_hash_enabled_) {
      delivered_hash_ =
          util::fnv1a_u64(delivered_hash_, util::payload_word(flow_, seq));
    }
    ++rcv_next_;
    // The run starting right above seq, if any, joins the in-order stream
    // and stops being a SACK block.
    if (is_buffered(rcv_next_)) {
      const std::uint32_t r = present_[rcv_next_] - 1;
      for (const SeqNo end = runs_[r].end; rcv_next_ < end; ++rcv_next_) {
        present_[rcv_next_] = 0;
        if (delivery_hash_enabled_) {
          delivered_hash_ = util::fnv1a_u64(
              delivered_hash_, util::payload_word(flow_, rcv_next_));
        }
        --buffered_;
      }
      free_run(r);
      present_.shrink_to_fit(rcv_next_, buffered_end_);
    }
    buffered_end_ = std::max(buffered_end_, rcv_next_);
  } else {  // above rcv_next_: out of order
    ++stats_.out_of_order;
    stats_.max_reorder_extent =
        std::max(stats_.max_reorder_extent, seq - rcv_next_);
    buffer_segment(seq);
    if (probe_) probe_.out_of_order(sched().now());
  }
  if (probe_) {
    const sim::TimePoint t = sched().now();
    probe_.rcv_next(t, static_cast<double>(rcv_next_));
    probe_.ooo_buffered(t, static_cast<double>(buffered_));
  }
  stats_.in_order_point = rcv_next_;
  stats_.goodput_bytes =
      static_cast<std::uint64_t>(rcv_next_) * config_.segment_bytes;

  // Duplicate or out-of-order arrivals must be acknowledged immediately
  // (RFC 5681); delayed ACKs only apply to in-order arrivals.
  const AckCause cause{seq, pkt.tcp.tx_serial, pkt.tcp.ts_value};
  const bool immediate = duplicate || buffered_ > 0 || !config_.delayed_ack;
  if (immediate) {
    if (has_pending_cause_) {  // flush any pending delayed ACK state
      has_pending_cause_ = false;
      unacked_segments_ = 0;
      delack_timer_.cancel();
    }
    send_ack(cause, duplicate);
    return;
  }

  // Delayed ACK: every second in-order segment, or after the timeout.
  pending_cause_ = cause;
  has_pending_cause_ = true;
  if (++unacked_segments_ >= 2) {
    has_pending_cause_ = false;
    unacked_segments_ = 0;
    delack_timer_.cancel();
    send_ack(cause, false);
    return;
  }
  delack_timer_.schedule_in(config_.delack_timeout, [this] {
    if (!has_pending_cause_) return;
    has_pending_cause_ = false;
    unacked_segments_ = 0;
    send_ack(pending_cause_, false);
  });
}

void Receiver::send_ack(const AckCause& cause, bool is_duplicate_arrival) {
  net::Packet ack;
  ack.src = local_;
  ack.dst = remote_;
  ack.size_bytes = config_.ack_bytes;
  ack.type = net::PacketType::kTcpAck;
  ack.tcp.flow = flow_;
  ack.tcp.ack = rcv_next_;
  if (config_.echo_timestamps) {
    ack.tcp.echo_serial = cause.tx_serial;
    ack.tcp.ts_echo = cause.ts_value;
  }
  if (config_.generate_dsack && is_duplicate_arrival) {
    // RFC 2883: first block reports the duplicate segment.
    ack.tcp.dsack = net::SackBlock{cause.seq, cause.seq + 1};
  }
  if (config_.generate_sack) {
    for (std::uint32_t r = run_head_;
         r != kNoRun && ack.tcp.sack.size() < net::kMaxSackBlocks;
         r = runs_[r].next) {
      ack.tcp.sack.push_back(net::SackBlock{runs_[r].begin, runs_[r].end});
    }
  }
  emit_ack(ack);
}

void Receiver::emit_ack(const net::Packet& ack) {
  ++stats_.acks_sent;
  if (ack_tap_) ack_tap_(ack);
  network_.node(local_).originate(ack);
}

}  // namespace tcppr::tcp
