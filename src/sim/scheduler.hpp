// The discrete-event scheduler at the heart of the simulator.
//
// Events are callbacks ordered by (time, insertion sequence); ties break
// FIFO, which matches ns-2 semantics and keeps runs deterministic.
//
// Storage is a generation-tagged slot arena: each event occupies a slot in
// a free-list vector, the callback lives in the slot with small-buffer
// optimization (no allocation for captures up to kCallbackInlineBytes), and
// EventId packs {slot index, generation}. schedule/cancel/is_pending and
// the liveness check on pop are all O(1) array indexing — no hashing, no
// node allocation. A slot's generation bumps on release, so a stale
// EventId held across slot reuse is rejected instead of hitting the new
// occupant. Cancellation is lazy: the slot is released immediately and the
// queue entry is skipped on pop. The pending-event set is an 8-ary heap
// held by value (sim/event_queue.hpp); a push that finds more cancelled
// than live entries (plus kPurgeFloor) first drops every cancelled one, so
// the heap stays within about twice its live population. One run loop
// serves run, run_until and run_until_before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/inline_function.hpp"

namespace tcppr::sim {

// Opaque handle for a scheduled event; value 0 is "never scheduled".
// Internally packs {generation (high 32 bits), slot index (low 32 bits)};
// generations start at 1 so a live id is never 0.
struct EventId {
  std::uint64_t value = 0;
  constexpr bool valid() const { return value != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;
};

class Scheduler {
 public:
  // Captures up to this size are stored inside the event slot; larger ones
  // fall back to one heap allocation. 48 bytes covers `this` plus a pooled
  // packet handle plus a word to spare — every hot-path event in the
  // simulator fits.
  static constexpr std::size_t kCallbackInlineBytes = 48;
  using Callback = util::InlineFunction<void(), kCallbackInlineBytes>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  TimePoint now() const { return now_; }

  // Schedules cb at absolute time t (>= now). Templated so the callable is
  // constructed directly inside the event slot (no temporary wrapper).
  // Illegal on a stamped shard (stamps need an owner — use *_for).
  template <typename F>
  EventId schedule_at(TimePoint t, F&& f) {
    TCPPR_CHECK(!stamping_);
    return schedule_with_seq(t, next_seq_++, std::forward<F>(f));
  }
  // Schedules cb after delay d (>= 0).
  template <typename F>
  EventId schedule_in(Duration d, F&& f) {
    return schedule_at(delay_to_time(d), std::forward<F>(f));
  }
  // Owner-attributed variants: identical to schedule_at/in on an
  // unstamped scheduler (the entity is ignored); on a stamped shard the
  // entity keys the tie-break stamp. The entity is the node the minting
  // component belongs to — a link's source node, a sender's host.
  template <typename F>
  EventId schedule_at_for(TimePoint t, std::uint32_t entity, F&& f) {
    return schedule_with_seq(t, stamping_ ? make_stamp(entity) : next_seq_++,
                             std::forward<F>(f));
  }
  template <typename F>
  EventId schedule_in_for(Duration d, std::uint32_t entity, F&& f) {
    return schedule_at_for(delay_to_time(d), entity, std::forward<F>(f));
  }
  // Schedules cb at t with a caller-provided tie-break sequence. The
  // parallel engine uses this to inject cross-shard events carrying the
  // stamp minted on the source shard, so same-time ties resolve in the
  // canonical (schedule-time, owner node, op) order regardless of which
  // shard the event lands on.
  template <typename F>
  EventId schedule_at_stamped(TimePoint t, std::uint64_t seq, F&& f) {
    return schedule_with_seq(t, seq, std::forward<F>(f));
  }

  // --- Parallel-execution support (LP shards) ---------------------------
  //
  // In stamped mode every scheduling operation mints a 64-bit stamp
  //   (current time ns + 1) << 24 | owner node << 10 | per-(node, time) idx
  // used as the event's tie-break sequence, giving same-target-time events
  // the canonical total order (target time, schedule time, owner node, op
  // index). Every component's ops execute on the shard owning its node, so
  // the per-node index needs no synchronization — and the order is
  // independent of how nodes are grouped into shards: the same simulation
  // stamped on 1, 2 or 8 shards executes byte-identically. The legacy
  // unstamped order (global insertion counter) coincides with stamp order
  // except when two different nodes schedule events for the same target
  // time within the same nanosecond; the canonical order breaks that tie
  // by node id, the legacy order by which op ran first.
  //
  // The +1 shift reserves the stamp range [0, 2^24) — "schedule time"
  // before the simulation's first nanosecond — for build-time events
  // adopted into shards before the run (harness/parallel_run.cpp stamps
  // them with a plain build-order counter via schedule_at_stamped). They
  // sort below every runtime stamp, exactly where the sequential
  // scheduler's insertion order put them, and a scenario may carry up to
  // 2^24 of them without touching the per-(node, ns) op budget.
  static constexpr std::uint32_t kStampOpBits = 10;      // 1024 ops/node/ns
  static constexpr std::uint32_t kStampEntityBits = 14;  // 16384 nodes
  static constexpr std::uint32_t kStampTimeBits =
      64 - kStampOpBits - kStampEntityBits;  // ~1100 s of simulated time

  void enable_seq_stamping() {
    stamping_ = true;
    stamp_slots_.clear();
  }
  bool stamping() const { return stamping_; }
  // Mints the next stamp for `entity` at the current time. Public because
  // the cross-LP link path consumes a stamp at push time (the op position
  // its sequential delivery-schedule op would have occupied).
  std::uint64_t make_stamp(std::uint32_t entity) {
    TCPPR_DCHECK(stamping_);
    TCPPR_CHECK(entity < (1u << kStampEntityBits));
    if (entity >= stamp_slots_.size()) {
      stamp_slots_.resize(entity + 1, StampSlot{-1, 0});
    }
    StampSlot& slot = stamp_slots_[entity];
    const std::int64_t u = now_.as_nanos() + 1;  // 0 = pre-run (see above)
    if (u != slot.time_ns) {
      slot.time_ns = u;
      slot.count = 0;
    }
    TCPPR_CHECK(u >= 1 && u < (std::int64_t{1} << kStampTimeBits));
    TCPPR_CHECK(slot.count < (1u << kStampOpBits));
    return (static_cast<std::uint64_t>(u)
            << (kStampOpBits + kStampEntityBits)) |
           (static_cast<std::uint64_t>(entity) << kStampOpBits) |
           slot.count++;
  }
  // Sequence of the event currently executing (0 outside fire). The
  // parallel engine keys buffered trace records on it so barrier merges
  // replay records in the same order the sequential run emitted them.
  std::uint64_t current_event_seq() const { return current_event_seq_; }

  // --- Batched hot-path support (net::LinkPump) -------------------------
  //
  // The link pump keys packet ops (transmission completions, deliveries)
  // with the exact (time, seq) their dedicated scheduler events would have
  // carried, parks ONE event at the earliest key, and on fire executes
  // every consecutive op the scheduler would have run back to back anyway.
  // These three hooks are what that requires: minting a sequence without
  // scheduling, asking whether an op may ride the current event, and
  // advancing the clock to an op's key mid-event.

  // Mints the tie-break sequence the next schedule_at_for(entity) call
  // would consume, without scheduling anything. An op keyed with it and
  // executed at that key is indistinguishable from the event it replaces.
  std::uint64_t mint_seq(std::uint32_t entity) {
    return stamping_ ? make_stamp(entity) : next_seq_++;
  }
  // True when an op keyed (t, seq) would execute next if the current event
  // returned: it precedes every pending live event and does not cross the
  // active run limit (run_until deadline / run_until_before horizon) or a
  // stop() request. Lazily pops cancelled entries at the queue front, like
  // next_deadline().
  bool would_fire_next(TimePoint t, std::uint64_t seq);
  // Moves the clock and current-event sequence to a batched op's key while
  // an event executes. Only legal when would_fire_next(t, seq) held for a
  // key at or after the current position; fire() still resets the
  // current-event sequence when the hosting event returns.
  void advance_batched_op(TimePoint t, std::uint64_t seq) {
    TCPPR_DCHECK(t >= now_);
    now_ = t;
    current_event_seq_ = seq;
  }

  // Returns true if the event was pending and is now cancelled.
  bool cancel(EventId id);
  bool is_pending(EventId id) const;

  // Runs events until the queue drains or stop() is called.
  void run();
  // Runs events with time <= deadline; leaves later events queued and
  // advances now() to the deadline.
  void run_until(TimePoint deadline);
  // Runs events with time strictly < horizon; leaves events at or after
  // the horizon queued and advances now() to the horizon. The parallel
  // engine's safe windows are exclusive so every event at exactly the
  // horizon — local or injected at the barrier — executes in the next
  // window, in merged stamp order.
  void run_until_before(TimePoint horizon);
  // Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  // Earliest pending live event time, or nullopt when none. Lazily pops
  // cancelled stale entries encountered at the front so the reported
  // minimum is never a cancelled shot (an under-estimate here would
  // shrink the parallel engine's safe horizon but a stale *earlier* than
  // every live event would stall it at a fake deadline).
  std::optional<TimePoint> next_deadline();

  std::size_t pending_count() const { return live_count_; }
  std::uint64_t processed_count() const { return processed_; }
  // Entries in the pending-event set, including lazily-cancelled stales —
  // the population the heap actually pays for. pending_count() <=
  // queued_count(); the gap is the stale load cancellation churn creates,
  // which the purge bounds: right after a push, queued_count() <=
  // 2 * pending_count() + kPurgeFloor.
  std::size_t queued_count() const { return queue_.size(); }

  // Stale entries a heap may hold beyond its live count before a push
  // purges them; keeps small heaps from purging every few cancels.
  static constexpr std::size_t kPurgeFloor = 64;

 private:
  template <typename F>
  EventId schedule_with_seq(TimePoint t, std::uint64_t seq, F&& f) {
    std::uint32_t index = acquire_slot(t);
    Slot& s = slot(index);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      s.cb = std::forward<F>(f);
      TCPPR_CHECK(static_cast<bool>(s.cb));
    } else {
      s.cb.emplace(std::forward<F>(f));
    }
    if (queue_.size() > 2 * live_count_ + kPurgeFloor) purge();
    ++live_count_;
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(s.generation) << 32) | index;
    queue_.push(QueuedEvent{t, seq, packed});
    return EventId{packed};
  }

  static constexpr std::uint32_t kFreeListEnd = 0xffffffffu;
  // Slots live in fixed-size chunks with stable addresses: growing the
  // arena never relocates live callbacks (a relocation would be an
  // indirect call per slot), and a burst of 10^5 events costs a handful of
  // chunk allocations instead of log2(n) vector regrowths. Chunks are raw
  // 64-byte-aligned storage; a slot is placement-constructed the first
  // time its index is handed out, so allocating a chunk never touches its
  // 64 KiB up front.
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  // A slot is exactly one cache line: 56-byte SBO callback + generation +
  // free-list link. `live` is implicit — a slot is live iff its callback
  // is engaged.
  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kFreeListEnd;
  };
  static_assert(sizeof(Slot) == 64);

  static constexpr std::uint32_t slot_of(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed);
  }
  static constexpr std::uint32_t generation_of(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed >> 32);
  }

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  const Slot& slot(std::uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  bool is_live(std::uint64_t packed) const {
    const std::uint32_t index = slot_of(packed);
    if (index >= slot_count_) return false;
    const Slot& s = slot(index);
    return s.generation == generation_of(packed) && static_cast<bool>(s.cb);
  }

  // Pops a slot off the free list (or grows the arena) after validating
  // the schedule time; the caller fills in the callback.
  std::uint32_t acquire_slot(TimePoint t);
  // Validates the delay and converts it to an absolute time.
  TimePoint delay_to_time(Duration d) const;
  // Returns the slot to the free list and invalidates outstanding ids.
  void release_slot(std::uint32_t index);
  // Executes the event's callback in place and frees its slot.
  void fire(const QueuedEvent& event);
  // Drops every cancelled entry from the heap (more than half of it).
  void purge();
  // Pops cancelled entries off the heap's front until a live one heads
  // it; false, with the heap cleared at once, when nothing in it is live.
  bool live_front();
  // Fires events in (time, seq) order while they lie at or before `limit`
  // and no stop() was requested.
  void run_loop(TimePoint limit);

  TimePoint now_;
  bool stopped_ = false;
  // Latest time the active run loop fires at, mirrored here so
  // would_fire_next() can refuse ops the loop would not reach:
  // TimePoint::max() under run(), d under run_until(d), and one
  // nanosecond before h under run_until_before(h).
  TimePoint run_limit_ = TimePoint::max();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stamping_ = false;
  struct StampSlot {
    std::int64_t time_ns;
    std::uint32_t count;
  };
  std::vector<StampSlot> stamp_slots_;  // indexed by owner entity (node id)
  std::uint64_t current_event_seq_ = 0;
  std::size_t live_count_ = 0;
  HeapQueue queue_;
  std::vector<Slot*> chunks_;  // raw aligned storage, lazily constructed
  std::uint32_t slot_count_ = 0;  // high-water mark of constructed slots
  std::uint32_t free_head_ = kFreeListEnd;
};

// RAII one-shot timer bound to a scheduler: rescheduling cancels the
// previous shot; destruction cancels the pending shot.
class Timer {
 public:
  explicit Timer(Scheduler& sched) : sched_(&sched), id_{} {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Re-points the timer at another scheduler (LP shard adoption). Only
  // legal while no shot is pending — a pending id would dangle into the
  // old scheduler's arena.
  void rebind(Scheduler& sched) {
    TCPPR_CHECK(!id_.valid());
    sched_ = &sched;
  }
  // Sets the owner entity stamped onto every shot (the timer's node).
  // Required before scheduling on a stamped shard; a no-op otherwise.
  void set_stamp_entity(std::uint32_t entity) { stamp_entity_ = entity; }

  template <typename F>
  void schedule_at(TimePoint t, F&& f) {
    cancel();
    id_ = sched_->schedule_at_for(t, stamp_entity_, std::forward<F>(f));
  }
  template <typename F>
  void schedule_in(Duration d, F&& f) {
    cancel();
    id_ = sched_->schedule_in_for(d, stamp_entity_, std::forward<F>(f));
  }
  void cancel() {
    // GCC 12 reports a spurious -Wmaybe-uninitialized for id_ when this is
    // inlined into deeply nested test bodies; id_ is initialized in every
    // constructor path. Still reproduces with the slot-arena EventId
    // (verified against GCC 12.2), so the suppression is gated on exactly
    // that major version — revisit when the toolchain moves past 12.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
    if (id_.valid()) {
      sched_->cancel(id_);
      id_ = EventId{};
    }
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic pop
#endif
  }
  bool pending() const { return id_.valid() && sched_->is_pending(id_); }

 private:
  Scheduler* sched_;
  EventId id_{};
  std::uint32_t stamp_entity_ = 0;
};

// Coalesced deadline timer: a fixed callback armed against a movable
// deadline, designed for the TCP pattern "re-arm on every ack". A plain
// Timer turns each re-arm into cancel + schedule; with lazy cancellation
// every cancel leaves a stale entry in the pending-event set, so a flow
// re-arming per ack carries O(acks-per-RTT) stale entries instead of one.
// DeadlineTimer keeps at most ONE physical event alive and never cancels
// it when the deadline moves later (the overwhelmingly common direction —
// deadlines track the head-of-line send time, which only advances): the
// old shot fires early, notices the target moved, and silently reschedules
// itself at the current target. Only a deadline moving *earlier* (rare:
// e.g. an RTT-estimate decay) pays a cancel. Net effect: pending-event
// population scales with flows, not packets-in-flight, and the callback
// still runs at exactly the armed deadline.
class DeadlineTimer {
 public:
  template <typename F>
  DeadlineTimer(Scheduler& sched, F&& f)
      : sched_(&sched), cb_(std::forward<F>(f)) {}
  ~DeadlineTimer() { cancel(); }
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  // Re-points at another scheduler; only legal while disarmed with no
  // physical shot in flight (LP shard adoption happens before the run).
  void rebind(Scheduler& sched) {
    TCPPR_CHECK(!armed_ && !id_.valid());
    sched_ = &sched;
  }
  // Sets the owner entity stamped onto every shot (the timer's node).
  void set_stamp_entity(std::uint32_t entity) { stamp_entity_ = entity; }

  // Arms (or re-arms) the callback to run at `deadline`. Clamped to now()
  // if in the past. Keeps the in-flight physical event whenever it already
  // fires at or before the new deadline.
  void arm(TimePoint deadline) {
    target_ = deadline;
    armed_ = true;
    if (id_.valid()) {
      if (scheduled_at_ <= deadline) return;  // early shot defers on fire
      sched_->cancel(id_);
    }
    schedule_physical(deadline);
  }

  // Hard cancel: the physical event is removed (lazily, like Timer), so
  // a cancelled DeadlineTimer holds no live event and cannot fire.
  void cancel() {
    armed_ = false;
    if (id_.valid()) {
      sched_->cancel(id_);
      id_ = EventId{};
    }
  }

  // Logical armed state: true iff the callback will run (at deadline()).
  bool armed() const { return armed_; }
  TimePoint deadline() const { return target_; }
  // True while a physical scheduler event exists (for tests; one per armed
  // timer by construction).
  bool physically_scheduled() const {
    return id_.valid() && sched_->is_pending(id_);
  }


 private:
  void schedule_physical(TimePoint t) {
    scheduled_at_ = std::max(t, sched_->now());
    id_ = sched_->schedule_at_for(scheduled_at_, stamp_entity_,
                                  [this] { on_fire(); });
  }
  void on_fire() {
    id_ = EventId{};
    if (target_ > sched_->now()) {
      // Deferred: the deadline moved later after this shot was scheduled.
      schedule_physical(target_);
      return;
    }
    armed_ = false;  // before cb_ so the callback may re-arm
    cb_();
  }

  Scheduler* sched_;
  Scheduler::Callback cb_;
  EventId id_{};
  TimePoint scheduled_at_;  // time of the physical event behind id_
  TimePoint target_;        // armed deadline (>= scheduled_at_ when live)
  bool armed_ = false;
  std::uint32_t stamp_entity_ = 0;
};

}  // namespace tcppr::sim
