// Unidirectional point-to-point link: output queue + transmitter.
//
// Store-and-forward: a packet occupies the transmitter for
// size * 8 / bandwidth seconds, then arrives at the far node one
// propagation delay later. An optional Bernoulli loss model drops packets
// at the receiving end (models corruption, used by robustness tests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/link_pump.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "util/ring_deque.hpp"

namespace tcppr::trace {
class Tracer;
}

namespace tcppr::telemetry {
class ReorderTap;
}

namespace tcppr::net {

class Node;

struct LinkStats {
  std::uint64_t delivered = 0;
  std::uint64_t bytes_delivered = 0;
  // All link-level drops: entry drops (down link / drop filter) plus
  // loss-model drops. Queue drops live in QueueStats.
  std::uint64_t lost = 0;
  std::uint64_t loss_model_lost = 0;  // subset of `lost`: Bernoulli model only
};

// Mailbox of one cut link in parallel mode: packets that finished their
// loss lottery on the source shard and are travelling toward a node owned
// by another shard. It is double-buffered: the source shard's thread
// appends to `fill` during a window while the destination shard's thread
// drains `drain`, which the coordinator handed over at the previous
// barrier by swapping the two with every worker parked (the
// window/barrier alternation is the synchronization — no locking).
// `stamp` is the tie-break sequence minted on the source shard at push
// time, i.e. the position the delivery-schedule op holds in the
// sequential run. The packet rides by value: it leaves the source LP's
// pool here and is written into the destination node's pool when drained.
struct CrossLinkMsg {
  sim::TimePoint at;
  std::uint64_t stamp = 0;
  Packet pkt;
};
struct CrossLinkChannel {
  struct Buffer {
    std::vector<CrossLinkMsg> msgs;
    sim::TimePoint earliest = sim::TimePoint::max();  // min `at` in msgs
  };
  Buffer fill;               // written by the source shard's thread
  Buffer drain;              // read by the destination shard's thread
  std::uint64_t pushed = 0;  // source-thread counter
};

class Link {
 public:
  // The link runs on `pump` (set_pump) from birth.
  Link(LinkPump& pump, NodeId from, NodeId to, double bandwidth_bps,
       sim::Duration prop_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Wired once by Network after nodes exist.
  void set_destination(Node* node) { dst_node_ = node; }
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  // Telemetry tap observing this link's delivery stream (one-branch-when-
  // off, same discipline as the tracer). Every delivery, local or
  // injected, passes through deliver_one on the destination node's shard,
  // so the tap sees the full stream in delivery order at any LP count.
  void set_telemetry_tap(telemetry::ReorderTap* tap) { tap_ = tap; }
  // The pool of the link's source node: every packet the link holds lives
  // there (Network wires its own pool, ParallelSim the source LP's). Only
  // legal while the link holds no packets.
  void set_packet_pool(std::shared_ptr<PacketPool> pool) {
    TCPPR_CHECK(queue_->length_packets() == 0 && in_transit_ == 0);
    pool_ = std::move(pool);
  }
  const PacketPool& packet_pool() const { return *pool_; }
  // Changes the propagation delay for future transmissions (mobility /
  // route-change models). Once the lookahead is frozen (parallel mode cut
  // link) the delay may only grow: the safe-horizon computation baked the
  // old delay in as this link's lookahead, and lowering it could let a
  // packet arrive inside an already-executed window.
  void set_prop_delay(sim::Duration delay) {
    TCPPR_CHECK(!lookahead_frozen_ || delay >= frozen_lookahead_);
    prop_delay_ = delay;
  }
  // --- Parallel-execution hooks (LP shard adoption) ----------------------
  // Re-homes the link, its queue's time source and every packet op it
  // mints on `pump` and the pump's scheduler (the network's pump at
  // construction; ParallelSim moves each link to its source LP's). Only
  // legal while idle (nothing transmitting or propagating) and not cut.
  void set_pump(LinkPump& pump);
  // Marks this link as a cut link: completed transmissions are pushed into
  // `channel` instead of being scheduled locally, and the current
  // propagation delay becomes the immutable lookahead floor. Injected
  // packets enter the delivery ring of `dst_pump`, the destination node's
  // LP's pump.
  void set_remote_channel(CrossLinkChannel& channel, LinkPump& dst_pump);
  // Unmarks a cut link (ParallelSim teardown: the channel dies with it).
  void clear_remote_channel() {
    remote_ = nullptr;
    lookahead_frozen_ = false;
  }
  // Changes the drain rate for future transmissions (mid-run capacity
  // change; the fuzzer uses this to model route/handover bandwidth shifts).
  void set_bandwidth(double bandwidth_bps);
  // Random corruption loss applied on delivery.
  void set_loss_model(double loss_rate, sim::Rng rng);
  // Per-packet uniform extra delivery delay in [0, max_jitter] (wireless
  // MAC / scheduling variation). Jittered deliveries may arrive out of
  // order — an in-path reordering source independent of routing.
  void set_jitter(sim::Duration max_jitter, sim::Rng rng);
  // Deterministic drop hook (tests, failure injection): return true to
  // drop the packet at link entry.
  void set_drop_filter(std::function<bool(const Packet&)> filter) {
    drop_filter_ = std::move(filter);
  }
  // Administrative state: a down link drops everything offered to it
  // (mobility / outage models).
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  // --- Cut-link injection (destination shard's thread) -------------------
  // Writes a drained mailbox packet into the destination node's pool and
  // inserts its delivery at (at, seq), the key minted on the source shard,
  // into the delivery ring on the destination pump — the path
  // complete_packet gives local deliveries. Source-side stats and
  // in-transit accounting already happened at push time.
  void inject(sim::TimePoint at, std::uint64_t seq, const Packet& pkt);
  // Injected packets not yet delivered: they live in the destination pool,
  // so the conservation sweep counts them as on-link.
  std::uint64_t injected_pending() const { return injected_pending_; }

  // Hands a packet to this link; may drop it immediately if the queue is
  // full. The handle must come from the link's pool (set_packet_pool).
  void send(PooledPacket pkt);

  // --- Packet ops (LinkPump) ---------------------------------------------
  // A link's packet ops (tx completions, deliveries) run on its pump; a
  // cut link's deliveries run on its destination shard's pump instead
  // (set_remote_channel).
  // Current head key of the given op stream, or nullopt when the stream is
  // empty. The pump re-keys the stream's index slot from this after each of
  // its ops — inline, it's a pair of loads on the hot path.
  std::optional<PumpKey> pump_op_key(PumpOp op) const {
    if (op == PumpOp::kTxComplete) {
      if (!tx_pending_) return std::nullopt;
      return tx_key_;
    }
    if (ring_.empty()) return std::nullopt;
    return PumpKey{ring_.front().at, ring_.front().seq};
  }
  // Executes the pending transmission-completion op (clock already at its
  // key): frees the transmitter, starts the next transmission, then runs
  // the completed packet's loss lottery / propagation setup.
  void pump_run_tx();
  // Executes the delivery at the ring head (clock already at its key).
  void pump_run_deliveries();

  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  sim::Duration prop_delay() const { return prop_delay_; }
  const Queue& queue() const { return *queue_; }
  const LinkStats& stats() const { return stats_; }
  // Queue drops + loss-model drops.
  std::uint64_t total_drops() const {
    return queue_->stats().dropped + stats_.lost;
  }
  // Packets dequeued into the transmitter/propagation pipeline and not yet
  // delivered or loss-dropped. Together with queue lengths this lets the
  // validation layer account for every packet in flight.
  std::uint64_t in_transit() const { return in_transit_; }
  // Test-only mutation knob: stop decrementing the in-transit counter on
  // delivery, so the conservation invariant is violated on purpose. Used
  // by the checker's mutation self-test to prove it detects corruption.
  void corrupt_transit_accounting_for_test() {
    skip_transit_decrement_ = true;
  }


 private:
  void start_transmission();
  // Post-transmission half of a packet's journey: loss lottery, hop count,
  // jitter, then delivery scheduling (mailbox or pump ring). Mint order is
  // fixed: the next transmission's sequence first (start_transmission),
  // then the loss lottery draw, then this packet's delivery sequence.
  void complete_packet(PooledPacket pkt);
  // Delivery epilogue for one packet: stats and in-transit accounting (on
  // a cut link: the injected count), telemetry tap, node hand-off.
  void deliver_one(PooledPacket p);
  // Sorted insert into the delivery ring (merge position by (at, seq);
  // append is O(1) for in-order deliveries, jittered ones swap backward).
  void insert_delivery(sim::TimePoint at, std::uint64_t seq,
                       PooledPacket pkt);
  PacketPool& pool() {
    TCPPR_DCHECK(pool_ != nullptr);
    return *pool_;
  }

  sim::Scheduler* sched_ = nullptr;  // pump_'s scheduler
  NodeId from_;
  NodeId to_;
  double bandwidth_bps_;
  sim::Duration prop_delay_;
  CrossLinkChannel* remote_ = nullptr;
  bool lookahead_frozen_ = false;
  sim::Duration frozen_lookahead_ = sim::Duration::zero();
  // Declared before every member holding handles, so it dies after them.
  std::shared_ptr<PacketPool> pool_;
  std::unique_ptr<Queue> queue_;
  Node* dst_node_ = nullptr;
  bool busy_ = false;
  bool down_ = false;
  bool skip_transit_decrement_ = false;  // mutation self-test only
  std::uint64_t in_transit_ = 0;
  double loss_rate_ = 0.0;
  sim::Rng loss_rng_;
  sim::Duration max_jitter_ = sim::Duration::zero();
  sim::Rng jitter_rng_;
  std::function<bool(const Packet&)> drop_filter_;
  trace::Tracer* tracer_ = nullptr;
  telemetry::ReorderTap* tap_ = nullptr;
  LinkStats stats_;

  // --- Packet op state ---------------------------------------------------
  LinkPump* pump_ = nullptr;
  std::uint32_t pump_id_ = 0;
  // The delivery ring's pump: pump_, except on a cut link, whose ring
  // belongs to the destination shard's pump and its thread.
  LinkPump* delivery_pump_ = nullptr;
  std::uint32_t delivery_pump_id_ = 0;
  std::uint64_t injected_pending_ = 0;
  // Pending transmission-completion op (at most one; the transmitter is
  // serial).
  bool tx_pending_ = false;
  PumpKey tx_key_{};
  PooledPacket tx_pkt_{};
  // Pending deliveries in (at, seq) order: a cut link's hold injected
  // packets in the destination pool.
  struct DeliveryEntry {
    sim::TimePoint at;
    std::uint64_t seq;
    PooledPacket pkt;
  };
  util::RingDeque<DeliveryEntry> ring_;
  // Mint-order bookkeeping: the last transmission-schedule op minted, used
  // to assert that a delivery op minted in the same instant (i.e. after
  // the loss lottery that follows the mint) sorts after it — the op-order
  // invariant the pump's schedule relies on.
  bool last_tx_mint_valid_ = false;
  PumpKey last_tx_mint_{};
};

}  // namespace tcppr::net
