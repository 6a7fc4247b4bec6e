// Router queue disciplines.
//
// DropTailQueue is the paper's configuration (FIFO, limit counted in
// packets, as in ns-2). RedQueue and PriorityQueue are extensions:
// PriorityQueue models the DiffServ-style differentiated forwarding that
// the paper's introduction names as a reordering source — packets of one
// flow marked into different bands leave the router out of order.
//
// Queues hold pool handles (net/packet_pool.hpp), not packets: admission
// moves the 16-byte handle in, pop() moves it out to the transmitter, and
// the packet itself never leaves its slot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "util/ring_deque.hpp"

namespace tcppr::sim {
class Scheduler;
}

namespace tcppr::net {

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes_enqueued = 0;
  std::uint64_t bytes_dequeued = 0;
  std::uint64_t bytes_dropped = 0;
};

class Queue {
 public:
  virtual ~Queue() = default;

  // Takes the packet (leaving `pkt` empty) and returns true when the
  // discipline admits it; returns false and leaves it with the caller,
  // which releases it, when the discipline drops it.
  virtual bool admit(PooledPacket& pkt) = 0;
  // Removes the head packet; an empty handle when nothing is queued.
  virtual PooledPacket pop() = 0;
  virtual std::size_t length_packets() const = 0;
  virtual std::uint64_t length_bytes() const = 0;

  // Wired by the owning Link: gives time-aware disciplines (RED's idle-
  // period decay) the simulation clock and the drain rate of the link they
  // serve. Standalone queues (tests) work without it.
  virtual void set_time_source(const sim::Scheduler* sched,
                               double bandwidth_bps) {
    (void)sched;
    (void)bandwidth_bps;
  }

  const QueueStats& stats() const { return stats_; }

 protected:
  using Ring = util::RingDeque<PooledPacket>;

  QueueStats stats_;
};

class DropTailQueue final : public Queue {
 public:
  // limit_bytes == 0 disables the byte cap (ns-2 counts packets; real
  // routers usually cap bytes — both supported).
  explicit DropTailQueue(std::size_t limit_packets,
                         std::uint64_t limit_bytes = 0);

  bool admit(PooledPacket& pkt) override;
  PooledPacket pop() override;
  std::size_t length_packets() const override { return q_.size(); }
  std::uint64_t length_bytes() const override { return bytes_; }
  std::size_t limit_packets() const { return limit_; }

 private:
  std::size_t limit_;
  std::uint64_t limit_bytes_;
  std::uint64_t bytes_ = 0;
  Ring q_;
};

// Strict-priority bands (band 0 served first). The classifier maps each
// packet to a band; per-band limits apply. A flow whose packets land in
// different bands is reordered in the order DiffServ would reorder it.
class PriorityQueue final : public Queue {
 public:
  using Classifier = std::function<int(const Packet&)>;

  PriorityQueue(int bands, std::size_t limit_per_band, Classifier classifier);

  bool admit(PooledPacket& pkt) override;
  PooledPacket pop() override;
  std::size_t length_packets() const override;
  std::uint64_t length_bytes() const override { return bytes_; }
  std::size_t band_length(int band) const;
  // Per-band attribution of the aggregate stats (drops in particular:
  // which band rejected the packet).
  const QueueStats& band_stats(int band) const;

 private:
  std::size_t limit_per_band_;
  Classifier classifier_;
  std::uint64_t bytes_ = 0;
  std::vector<Ring> bands_;
  std::vector<QueueStats> band_stats_;
};

// Random Early Detection (Floyd & Jacobson 1993), gentle mode.
// Extension: not used by the paper's experiments, but useful for checking
// that TCP-PR's loss response is queue-discipline agnostic.
class RedQueue final : public Queue {
 public:
  struct Params {
    std::size_t limit_packets = 100;
    double min_thresh = 5;     // packets
    double max_thresh = 15;    // packets
    double max_p = 0.1;        // drop probability at max_thresh
    double weight = 0.002;     // EWMA weight for the average queue
    // Packet size assumed for the idle-period adjustment (the RED paper's
    // "typical transmission time" for a small packet).
    double idle_pkt_bytes = 500;
  };

  RedQueue(Params params, sim::Rng rng);

  bool admit(PooledPacket& pkt) override;
  PooledPacket pop() override;
  std::size_t length_packets() const override { return q_.size(); }
  std::uint64_t length_bytes() const override { return bytes_; }
  void set_time_source(const sim::Scheduler* sched,
                       double bandwidth_bps) override;
  double average_queue() const { return avg_; }

 private:
  Params params_;
  sim::Rng rng_;
  double avg_ = 0;
  int count_since_drop_ = -1;
  std::uint64_t bytes_ = 0;
  // Idle-period bookkeeping (Floyd & Jacobson §4 / ns-2 REDQueue): while
  // the queue sits empty the average must keep decaying as if empty
  // samples arrived at the link's drain rate, otherwise a stale average
  // early-drops the first burst after an idle spell. Requires a time
  // source; without one the (pre-fix) pure-EWMA behaviour is kept.
  const sim::Scheduler* sched_ = nullptr;
  double bandwidth_bps_ = 0;
  bool idle_ = false;
  sim::TimePoint idle_since_;
  Ring q_;
};

}  // namespace tcppr::net
