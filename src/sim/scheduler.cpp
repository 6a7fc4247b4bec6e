#include "sim/scheduler.hpp"

#include <new>
#include <utility>

#include "util/check.hpp"

namespace tcppr::sim {

Scheduler::~Scheduler() {
  for (std::uint32_t i = 0; i < slot_count_; ++i) slot(i).~Slot();
  for (Slot* chunk : chunks_) {
    ::operator delete(chunk, std::align_val_t{64});
  }
}

std::uint32_t Scheduler::acquire_slot(TimePoint t) {
  TCPPR_CHECK(t >= now_);
  std::uint32_t index;
  if (free_head_ != kFreeListEnd) {
    index = free_head_;
    free_head_ = slot(index).next_free;
  } else {
    TCPPR_CHECK(slot_count_ < kFreeListEnd);
    if (slot_count_ == chunks_.size() * kChunkSlots) {
      chunks_.push_back(static_cast<Slot*>(::operator new(
          sizeof(Slot) * kChunkSlots, std::align_val_t{64})));
    }
    index = slot_count_++;
    ::new (static_cast<void*>(&slot(index))) Slot();
  }
  return index;
}

TimePoint Scheduler::delay_to_time(Duration d) const {
  TCPPR_CHECK(d >= Duration::zero());
  return now_ + d;
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& s = slot(index);
  s.cb.reset();
  if (++s.generation == 0) s.generation = 1;  // keep packed ids non-zero
  s.next_free = free_head_;
  free_head_ = index;
  --live_count_;
}

bool Scheduler::cancel(EventId id) {
  if (!is_live(id.value)) return false;
  release_slot(slot_of(id.value));
  return true;
}

bool Scheduler::is_pending(EventId id) const { return is_live(id.value); }

void Scheduler::fire(const QueuedEvent& event) {
  const std::uint32_t index = slot_of(event.id);
  Slot& s = slot(index);
  // Invalidate outstanding ids before invoking, but keep the slot off the
  // free list until the callback returns: chunk addresses are stable, so
  // the callback runs in place, and new events it schedules can never be
  // handed this slot while it executes.
  if (++s.generation == 0) s.generation = 1;
  --live_count_;
  ++processed_;
  now_ = event.time;
  current_event_seq_ = event.seq;
  s.cb();
  current_event_seq_ = 0;
  s.cb.reset();
  s.next_free = free_head_;
  free_head_ = index;
}

void Scheduler::purge() {
  queue_.retain([this](std::uint64_t id) { return is_live(id); });
}

// Inline here, where every caller is: with a live front entry, the run
// loop's common case, it is two loads and no call.
inline bool Scheduler::live_front() {
  if (live_count_ == 0) {
    // Everything still queued is a cancelled stale; popping each one
    // through the sift machinery would be wasted work.
    queue_.clear();
    return false;
  }
  while (!is_live(queue_.peek_min()->id)) queue_.drop_min();
  return true;
}

bool Scheduler::would_fire_next(TimePoint t, std::uint64_t seq) {
  if (stopped_ || t > run_limit_) return false;
  return !live_front() || QueuedEvent{t, seq, 0} < *queue_.peek_min();
}

void Scheduler::run_loop(TimePoint limit) {
  stopped_ = false;
  run_limit_ = limit;
  // A cancelled entry is dropped even when it lies past the limit; peeking
  // it again every window would be wasted work.
  while (!stopped_ && live_front()) {
    const QueuedEvent top = *queue_.peek_min();
    if (top.time > limit) break;  // stays queued
    queue_.drop_min();
    fire(top);
  }
}

void Scheduler::run() { run_loop(TimePoint::max()); }

void Scheduler::run_until(TimePoint deadline) {
  run_loop(deadline);
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::run_until_before(TimePoint horizon) {
  run_loop(horizon - Duration::nanos(1));  // times are whole nanoseconds
  if (now_ < horizon) now_ = horizon;
}

std::optional<TimePoint> Scheduler::next_deadline() {
  if (!live_front()) return std::nullopt;
  return queue_.peek_min()->time;
}

}  // namespace tcppr::sim
