// Free-list pool that holds every in-flight packet.
//
// A packet is written into a pool slot once, when a node originates it,
// and stays in that slot until it is delivered to an agent or dropped:
// queues, transmitters, delivery rings and sender bursts pass only the
// slot's handle (PooledPacket, a 16-byte unique_ptr whose deleter is the
// pool pointer). The copies left are at a parallel cut link: the packet
// rides the mailbox by value, and the destination LP's own thread writes
// it into that LP's pool, so each pool is touched only by its own LP's
// thread.
//
// Slots are individually allocated, so a handle's pointer stays valid
// while the pool grows; the free list holds slot pointers, LIFO, so a warm
// pool allocates nothing and hands out the most recently touched slot
// first.
//
// Ownership: handles do not keep their pool alive (no refcount traffic on
// the per-hop path). Whatever holds handles must therefore die before the
// pool: a Network declares its pool before its links, and a Link holds its
// source node's pool and declares it before its queue and rings (a cut
// link's ring holds packets of the destination node's pool, which its
// node keeps alive until the network's links are gone).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace tcppr::net {

class PacketPool;

// Deleter that returns the packet's slot to its pool instead of freeing it.
struct PacketReturner {
  PacketPool* pool = nullptr;
  void operator()(Packet* pkt) const;
};

using PooledPacket = std::unique_ptr<Packet, PacketReturner>;
static_assert(sizeof(PooledPacket) == 16);

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  static std::shared_ptr<PacketPool> create() {
    return std::make_shared<PacketPool>();
  }

  // Checks a slot out and writes `src` into it.
  PooledPacket make(const Packet& src) {
    Packet* slot;
    if (free_.empty()) {
      storage_.push_back(std::make_unique<Packet>());
      slot = storage_.back().get();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    *slot = src;
    return PooledPacket{slot, PacketReturner{this}};
  }

  void release(Packet* slot) { free_.push_back(slot); }

  std::size_t allocated() const { return storage_.size(); }
  std::size_t idle() const { return free_.size(); }
  // Slots checked out: packets queued, transmitting or propagating, plus
  // any a sender is staging (none between events).
  std::size_t live() const { return storage_.size() - free_.size(); }

 private:
  std::vector<std::unique_ptr<Packet>> storage_;
  std::vector<Packet*> free_;  // LIFO
};

inline void PacketReturner::operator()(Packet* p) const { pool->release(p); }

}  // namespace tcppr::net
