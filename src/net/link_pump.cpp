#include "net/link_pump.hpp"

#include <bit>

#include "net/link.hpp"

namespace tcppr::net {

// Sizes the leaves for every registered stream, to the next power of two,
// and replays the present ones.
void PumpIndex::grow() {
  const std::vector<Packed> old(key_.begin() + leaves_, key_.end());
  leaves_ = std::bit_ceil(streams_);
  key_.assign(2 * leaves_, kAbsent);
  id_.resize(2 * leaves_);
  for (std::uint32_t s = 0; s < leaves_; ++s) id_[leaves_ + s] = s;
  for (std::uint32_t s = 0; s < old.size(); ++s) {
    if (old[s] != kAbsent) replay(s, old[s]);
  }
}

LinkPump::~LinkPump() {
  if (parked_.valid()) sched_->cancel(parked_);
}

std::uint32_t LinkPump::add_link(Link* link) {
  links_.push_back(link);
  index_.add_streams(2);
  return static_cast<std::uint32_t>(links_.size() - 1);
}

void LinkPump::park(PumpKey k) {
  // The carrier occupies the head op's exact schedule position: no new
  // sequence is minted, so the carrier sorts exactly where its op does.
  parked_key_ = k;
  parked_ = sched_->schedule_at_stamped(k.at, k.seq, [this] { on_event(); });
}

void LinkPump::push_op(PumpKey k, std::uint32_t link_id, PumpOp op) {
  const std::uint32_t stream = stream_of(link_id, op);
  if (stream == running_) return;  // on_event re-keys it when the op returns
  if (index_.contains(stream)) {
    // Only a jittered delivery that overtook the ring head re-announces an
    // indexed stream, and it always moves the stream earlier.
    TCPPR_DCHECK(k < index_.key(stream));
    index_.update(stream, k);
  } else {
    index_.insert(stream, k);
  }
  if (in_batch_) return;  // the batch loop re-parks when it drains
  if (!parked_.valid()) {
    park(k);
    return;
  }
  if (k < parked_key_) {
    sched_->cancel(parked_);
    park(k);
  }
}

void LinkPump::on_event() {
  // Fired at parked_key_ == the earliest op's key; the scheduler has
  // already advanced now/current_event_seq to it.
  parked_ = sim::EventId{};
  in_batch_ = true;
  ++stats_.events;
  for (bool first = true; !index_.empty(); first = false) {
    const PumpIndex::Slot head = index_.top();
    if (!first) {
      if (!sched_->would_fire_next(head.key.at, head.key.seq)) {
        in_batch_ = false;
        park(head.key);
        return;
      }
      // The op rides this event: advance the clock to its key.
      sched_->advance_batched_op(head.key.at, head.key.seq);
    }
    ++stats_.ops;
    Link* link = links_[head.stream >> 1];
    const auto op = static_cast<PumpOp>(head.stream & 1);
    running_ = head.stream;
    if (op == PumpOp::kTxComplete) {
      link->pump_run_tx();
    } else {
      link->pump_run_deliveries();
    }
    running_ = kNoStream;
    // The op may have re-rooted the index (a zero-delay op minted by a
    // lower node id sorts first), so the stream is addressed by id.
    if (const std::optional<PumpKey> next = link->pump_op_key(op)) {
      index_.update(head.stream, *next);
    } else {
      index_.remove(head.stream);
    }
  }
  in_batch_ = false;
}

}  // namespace tcppr::net
