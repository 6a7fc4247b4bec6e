// Per-event packet batch: the carrier the batched hot path hands between
// layers (link delivery runs -> Node::receive_batch -> Agent::deliver_batch,
// sender send-bursts -> Node::originate_burst -> Link::send_batch).
//
// Small-buffer container in the spirit of util::InlineVec, which cannot
// hold Packet itself (InlineVec is restricted to trivially copyable
// element types): the first kInline entries live inline in the batch —
// enough for a typical delivery run or ACK train without touching the
// allocator — and larger bursts spill to one heap buffer. A released heap
// buffer is kept as the thread's spare (the largest one seen) for the next
// batch that spills, so a sender whose bursts regularly outgrow the inline
// slots stops allocating once warm. Each entry
// optionally carries the scheduler tie-break sequence of the event the
// packet's individual delivery would have been (0 when the batch was built
// outside the pump, e.g. a send-burst), so downstream layers can advance
// the clock's current-event sequence per packet and keep buffered trace
// records keyed exactly as the unbatched engine keys them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace tcppr::net {

class PacketBatch {
 public:
  struct Entry {
    Packet pkt;
    std::uint64_t seq;
  };

  static constexpr std::size_t kInline = 8;

  PacketBatch() = default;
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;
  PacketBatch(PacketBatch&& other) noexcept { steal(std::move(other)); }
  PacketBatch& operator=(PacketBatch&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(std::move(other));
    }
    return *this;
  }
  ~PacketBatch() { destroy(); }

  void push(Packet&& pkt, std::uint64_t seq = 0) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(data_ + size_)) Entry{std::move(pkt), seq};
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Packet& operator[](std::size_t i) {
    TCPPR_DCHECK(i < size_);
    return data_[i].pkt;
  }
  const Packet& operator[](std::size_t i) const {
    TCPPR_DCHECK(i < size_);
    return data_[i].pkt;
  }
  std::uint64_t seq(std::size_t i) const {
    TCPPR_DCHECK(i < size_);
    return data_[i].seq;
  }

  void clear() {
    destroy();
    data_ = inline_data();
    size_ = 0;
    cap_ = kInline;
  }

 private:
  Entry* inline_data() { return reinterpret_cast<Entry*>(inline_); }
  bool on_heap() const {
    return data_ != reinterpret_cast<const Entry*>(inline_);
  }

  void grow() {
    std::size_t new_cap = cap_ * 2;
    Entry* fresh;
    Spare& spare = thread_spare();
    if (spare.cap >= new_cap) {
      fresh = spare.data;
      new_cap = spare.cap;
      spare.data = nullptr;
      spare.cap = 0;
    } else {
      fresh = allocate(new_cap);
    }
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) Entry{std::move(data_[i])};
      data_[i].~Entry();
    }
    if (on_heap()) release(data_, cap_);
    data_ = fresh;
    cap_ = new_cap;
  }

  void destroy() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~Entry();
    if (on_heap()) release(data_, cap_);
  }

  static Entry* allocate(std::size_t cap) {
    return static_cast<Entry*>(::operator new(
        sizeof(Entry) * cap, std::align_val_t{alignof(Entry)}));
  }
  static void deallocate(Entry* data) {
    ::operator delete(data, std::align_val_t{alignof(Entry)});
  }

  // The thread's heap buffer that no batch is using; freed at thread exit.
  struct Spare {
    Entry* data = nullptr;
    std::size_t cap = 0;
    Spare() = default;
    Spare(const Spare&) = delete;
    Spare& operator=(const Spare&) = delete;
    ~Spare() {
      if (data != nullptr) deallocate(data);
    }
  };
  static Spare& thread_spare() {
    thread_local Spare spare;
    return spare;
  }
  // Keeps the larger of the released buffer and the current spare.
  static void release(Entry* data, std::size_t cap) {
    Spare& spare = thread_spare();
    if (cap <= spare.cap) {
      deallocate(data);
      return;
    }
    if (spare.data != nullptr) deallocate(spare.data);
    spare.data = data;
    spare.cap = cap;
  }

  void steal(PacketBatch&& other) {
    if (other.on_heap()) {
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
    } else {
      data_ = inline_data();
      size_ = other.size_;
      cap_ = kInline;
      for (std::size_t i = 0; i < size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) Entry{std::move(other.data_[i])};
        other.data_[i].~Entry();
      }
    }
    other.data_ = other.inline_data();
    other.size_ = 0;
    other.cap_ = kInline;
  }

  Entry* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t cap_ = kInline;
  alignas(Entry) std::byte inline_[sizeof(Entry) * kInline];
};

}  // namespace tcppr::net
