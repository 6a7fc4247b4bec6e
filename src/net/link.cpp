#include "net/link.hpp"

#include <utility>

#include "net/node.hpp"
#include "telemetry/reorder_tap.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace tcppr::net {

Link::Link(LinkPump& pump, NodeId from, NodeId to, double bandwidth_bps,
           sim::Duration prop_delay, std::unique_ptr<Queue> queue)
    : from_(from),
      to_(to),
      bandwidth_bps_(bandwidth_bps),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      loss_rng_(0),
      jitter_rng_(0) {
  TCPPR_CHECK(bandwidth_bps_ > 0);
  TCPPR_CHECK(prop_delay_ >= sim::Duration::zero());
  TCPPR_CHECK(queue_ != nullptr);
  set_pump(pump);
}

void Link::set_pump(LinkPump& pump) {
  TCPPR_CHECK(!busy_ && in_transit_ == 0 && remote_ == nullptr);
  sched_ = &pump.scheduler();
  queue_->set_time_source(sched_, bandwidth_bps_);
  pump_ = &pump;
  pump_id_ = pump.add_link(this);
  delivery_pump_ = pump_;
  delivery_pump_id_ = pump_id_;
}

void Link::set_remote_channel(CrossLinkChannel& channel, LinkPump& dst_pump) {
  TCPPR_CHECK(prop_delay_ > sim::Duration::zero());
  TCPPR_CHECK(ring_.empty());
  remote_ = &channel;
  lookahead_frozen_ = true;
  frozen_lookahead_ = prop_delay_;
  delivery_pump_ = &dst_pump;
  delivery_pump_id_ = dst_pump.add_link(this);
}

void Link::set_loss_model(double loss_rate, sim::Rng rng) {
  TCPPR_CHECK(loss_rate >= 0 && loss_rate < 1);
  loss_rate_ = loss_rate;
  loss_rng_ = rng;
}

void Link::set_bandwidth(double bandwidth_bps) {
  TCPPR_CHECK(bandwidth_bps > 0);
  bandwidth_bps_ = bandwidth_bps;
  // In-progress transmissions keep their already-scheduled completion
  // time; only future dequeues see the new rate.
  queue_->set_time_source(sched_, bandwidth_bps_);
}

void Link::set_jitter(sim::Duration max_jitter, sim::Rng rng) {
  TCPPR_CHECK(max_jitter >= sim::Duration::zero());
  max_jitter_ = max_jitter;
  jitter_rng_ = rng;
}

void Link::send(PooledPacket pkt) {
  if (down_ || (drop_filter_ && drop_filter_(*pkt))) {
    ++stats_.lost;
    if (tracer_) {
      tracer_->emit(sched_->now(), trace::EventType::kLossDrop, *pkt, from_,
                    to_);
    }
    return;
  }
  // The slot stays put whether the queue admits the handle or not, so the
  // trace reads it after the decision.
  const Packet& slot = *pkt;
  const bool accepted = queue_->admit(pkt);
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->emit(sched_->now(),
                  accepted ? trace::EventType::kEnqueue
                           : trace::EventType::kQueueDrop,
                  slot, from_, to_);
  }
  if (!accepted) {
    TCPPR_LOG_DEBUG("link", "queue drop on %d->%d", from_, to_);
    return;
  }
  if (!busy_) start_transmission();
}

void Link::start_transmission() {
  PooledPacket pkt = queue_->pop();
  if (pkt == nullptr) {
    busy_ = false;
    return;
  }
  busy_ = true;
  ++in_transit_;
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->emit(sched_->now(), trace::EventType::kDequeue, *pkt, from_, to_);
  }
  const double tx_seconds =
      static_cast<double>(pkt->size_bytes) * 8.0 / bandwidth_bps_;
  const sim::TimePoint at =
      sched_->now() + sim::Duration::seconds(tx_seconds);
  const std::uint64_t seq =
      sched_->mint_seq(static_cast<std::uint32_t>(from_));
  last_tx_mint_valid_ = true;
  last_tx_mint_ = PumpKey{sched_->now(), seq};
  tx_pending_ = true;
  tx_key_ = PumpKey{at, seq};
  tx_pkt_ = std::move(pkt);
  pump_->push_op(tx_key_, pump_id_, PumpOp::kTxComplete);
}

void Link::pump_run_tx() {
  TCPPR_DCHECK(tx_pending_);
  tx_pending_ = false;
  PooledPacket p = std::move(tx_pkt_);
  // Transmitter is free: begin the next packet (if any) before modelling
  // this packet's propagation.
  start_transmission();
  complete_packet(std::move(p));
}

void Link::complete_packet(PooledPacket pkt) {
  if (loss_rate_ > 0 && loss_rng_.bernoulli(loss_rate_)) {
    ++stats_.lost;
    ++stats_.loss_model_lost;
    --in_transit_;
    if (tracer_ != nullptr) {
      tracer_->emit(sched_->now(), trace::EventType::kLossDrop, *pkt, from_,
                    to_);
    }
    TCPPR_LOG_DEBUG("link", "loss-model drop on %d->%d", from_, to_);
    return;  // pkt returns to the pool
  }
  ++pkt->hops;
  sim::Duration delivery_delay = prop_delay_;
  if (max_jitter_ > sim::Duration::zero()) {
    delivery_delay +=
        max_jitter_ * jitter_rng_.uniform();  // may reorder deliveries
  }
  if (remote_ != nullptr) {
    // Cut link: the destination node lives on another shard. Source-side
    // bookkeeping happens now (delivery is certain once the loss lottery
    // above passed), the packet rides the mailbox, and the stamp minted
    // here occupies exactly the op position the delivery-schedule call
    // below holds in the sequential run — so the injected delivery ties
    // against local ops the same way the sequential scheduler would have
    // broken them.
    ++stats_.delivered;
    stats_.bytes_delivered += pkt->size_bytes;
    if (!skip_transit_decrement_) --in_transit_;
    ++remote_->pushed;
    const sim::TimePoint at = sched_->now() + delivery_delay;
    CrossLinkChannel::Buffer& out = remote_->fill;
    out.msgs.push_back(CrossLinkMsg{
        at, sched_->make_stamp(static_cast<std::uint32_t>(from_)), *pkt});
    if (at < out.earliest) out.earliest = at;
    return;  // the packet crosses by value; its slot returns to this pool
  }
  const sim::TimePoint at = sched_->now() + delivery_delay;
  const std::uint64_t seq =
      sched_->mint_seq(static_cast<std::uint32_t>(from_));
  // Op-order invariant (the schedule the pump keeps): the delivery op
  // minted after this packet's loss lottery sorts after the next-packet
  // transmission op minted before it. Stamps embed the mint instant and a
  // per-(node, instant) counter, the plain counter is globally monotone —
  // either way later mints sort later; assert it rather than assume it.
  TCPPR_DCHECK(!last_tx_mint_valid_ || last_tx_mint_.at != sched_->now() ||
               seq > last_tx_mint_.seq);
  insert_delivery(at, seq, std::move(pkt));
}

void Link::inject(sim::TimePoint at, std::uint64_t seq, const Packet& pkt) {
  TCPPR_DCHECK(remote_ != nullptr && dst_node_ != nullptr);
  ++injected_pending_;
  insert_delivery(at, seq, dst_node_->packet_pool().make(pkt));
}

void Link::deliver_one(PooledPacket p) {
  if (remote_ == nullptr) {
    ++stats_.delivered;
    stats_.bytes_delivered += p->size_bytes;
    if (!skip_transit_decrement_) --in_transit_;
  } else {
    --injected_pending_;  // source-owned counters moved at push time
  }
  if (tap_ != nullptr) tap_->on_deliver(*p);
  TCPPR_DCHECK(dst_node_ != nullptr);
  dst_node_->receive(std::move(p));
}

void Link::insert_delivery(sim::TimePoint at, std::uint64_t seq,
                           PooledPacket pkt) {
  ring_.push_back(DeliveryEntry{at, seq, std::move(pkt)});
  // Merge position: in-order deliveries (the common case — jitter-free
  // links mint nondecreasing keys) append in O(1); a jittered early
  // arrival swaps backward to its slot, keeping the ring the sorted merge
  // of the link's delivery stream.
  std::size_t i = ring_.size() - 1;
  while (i > 0 && (at < ring_[i - 1].at ||
                   (at == ring_[i - 1].at && seq < ring_[i - 1].seq))) {
    std::swap(ring_[i], ring_[i - 1]);
    --i;
  }
  if (i == 0) {
    // New head: the first entry, or an early arrival that overtook the old
    // head (the pump moves the stream's slot earlier).
    delivery_pump_->push_op(PumpKey{at, seq}, delivery_pump_id_,
                            PumpOp::kDeliver);
  }
}

void Link::pump_run_deliveries() {
  TCPPR_DCHECK(!ring_.empty());
  // The pump re-keys this stream from the new ring head when we return.
  deliver_one(ring_.pop_front().pkt);
}

}  // namespace tcppr::net
