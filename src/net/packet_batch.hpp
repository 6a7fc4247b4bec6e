// Per-event packet batch: the carrier a sender send-burst travels in
// (SenderBase's BurstScope -> Node::originate_burst -> Link::send_batch,
// and Queue::enqueue_batch/dequeue_batch below it).
//
// Small-buffer container in the spirit of util::InlineVec, which cannot
// hold Packet itself (InlineVec is restricted to trivially copyable
// element types): the first kInline packets live inline in the batch —
// enough for a typical window burst without touching the allocator — and
// larger bursts spill to one heap buffer. A released heap buffer is kept
// as the thread's spare (the largest one seen) for the next batch that
// spills, so a sender whose bursts regularly outgrow the inline slots
// stops allocating once warm.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace tcppr::net {

class PacketBatch {
 public:
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

  void push(Packet&& pkt) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(data_ + size_)) Packet(std::move(pkt));
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Packet& operator[](std::size_t i) {
    TCPPR_DCHECK(i < size_);
    return data_[i];
  }
  const Packet& operator[](std::size_t i) const {
    TCPPR_DCHECK(i < size_);
    return data_[i];
  }

  void clear() {
    destroy();
    data_ = inline_data();
    size_ = 0;
    cap_ = kInline;
  }

 private:
  Packet* inline_data() { return reinterpret_cast<Packet*>(inline_); }
  bool on_heap() const {
    return data_ != reinterpret_cast<const Packet*>(inline_);
  }

  void grow() {
    std::size_t new_cap = cap_ * 2;
    Packet* fresh;
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
      ::new (static_cast<void*>(fresh + i)) Packet(std::move(data_[i]));
      data_[i].~Packet();
    }
    if (on_heap()) release(data_, cap_);
    data_ = fresh;
    cap_ = new_cap;
  }

  void destroy() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~Packet();
    if (on_heap()) release(data_, cap_);
  }

  static Packet* allocate(std::size_t cap) {
    return static_cast<Packet*>(::operator new(
        sizeof(Packet) * cap, std::align_val_t{alignof(Packet)}));
  }
  static void deallocate(Packet* data) {
    ::operator delete(data, std::align_val_t{alignof(Packet)});
  }

  // The thread's heap buffer that no batch is using; freed at thread exit.
  struct Spare {
    Packet* data = nullptr;
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
  static void release(Packet* data, std::size_t cap) {
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
        ::new (static_cast<void*>(data_ + i))
            Packet(std::move(other.data_[i]));
        other.data_[i].~Packet();
      }
    }
    other.data_ = other.inline_data();
    other.size_ = 0;
    other.cap_ = kInline;
  }

  Packet* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t cap_ = kInline;
  alignas(Packet) std::byte inline_[sizeof(Packet) * kInline];
};

}  // namespace tcppr::net
