// Deterministic discrete-event scheduler: the heartbeat of the emulator.
//
// Events are (time, sequence) ordered; the sequence number makes ties
// deterministic (events scheduled earlier fire earlier), which in turn makes
// every experiment bit-for-bit reproducible from its seed and config.
//
// Hot-path storage is allocation-free at steady state. The queue is an
// indexed binary heap of 24-byte {when, seq, record} keys; each key names a
// record in a side slab that holds the event's InlineAction, its liveness
// token and its current heap position, and records recycle through a free
// list. Gates and EventHandles are {slot, generation} tokens into one
// scheduler-owned arena whose slots also recycle. Because a record knows
// where its key sits, a pending event can be moved in place (rekey) instead
// of being cancelled and pushed again.
//
// Taken sequence numbers: take_seq() hands out the number the next push
// would get, without queueing anything (take_seqs(n) hands out n at once).
// Its taker may later queue or move one event under it (the schedule_at /
// rekey overloads with a seq); that
// event then fires exactly where one queued at take time would have, ties
// included. This lets an owner keep many pending times in its own heap and
// show the scheduler only the earliest (TransferManager does). Only the
// taker may use a taken number, and at most one queued event may carry it
// at a time: the scheduler checks that the number was issued, not that it
// is unique.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/action.hpp"
#include "sim/event_heap.hpp"

namespace eona::sim {

class Scheduler;

/// Opaque handle to a scheduled event; allows cancellation and re-keying. A
/// {slot, generation} token into the owning scheduler's arena -- the same
/// storage discipline as Gate, so per-event scheduling allocates nothing.
/// Value type; copies refer to the same event. Must not outlive the
/// scheduler.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to an event that has neither fired nor been
  /// cancelled.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  EventHandle(const Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}
  const Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

/// Allocation-free revocation token for handle-free posts (see
/// Scheduler::post_at). A Gate is a {slot, generation} pair into a
/// scheduler-owned arena: closing the gate bumps the slot's generation, so
/// every event posted through the old generation is skipped without firing
/// -- the exact semantics of cancelling an EventHandle, minus the per-event
/// handle bookkeeping. Value type; copying copies the token, not the gate.
class Gate {
 public:
  Gate() = default;
  /// True if this token was obtained from open_gate() (says nothing about
  /// whether the gate has since been closed -- ask Scheduler::gate_open).
  [[nodiscard]] bool valid() const { return slot_ != kNone; }

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

/// Priority-queue based event scheduler with a virtual clock.
///
/// Not thread-safe by design: the whole emulation is single-threaded and
/// deterministic (Core Guidelines CP.1 -- assume your code will run as part
/// of a multi-threaded program only where you have made that true). Sector-
/// parallel execution runs one Scheduler per sector, never sharing one.
class Scheduler {
 public:
  using Action = InlineAction;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Number of events that have fired so far.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Number of events still queued (including cancelled-but-unpopped ones).
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }

  /// Pre-size the event queue so steady-state posting never reallocates.
  void reserve_events(std::size_t n) {
    heap_.reserve(n);
    records_.reserve(n);
    record_free_.reserve(n);
  }

  /// Pre-size the gate/handle slot arena.
  void reserve_slots(std::size_t n) {
    slots_.reserve(n);
    slot_free_.reserve(n);
  }

  /// Schedule `action` to run at absolute time `when` (>= now).
  EventHandle schedule_at(TimePoint when, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(action);
    return schedule_at(when, next_seq_++, std::move(action));
  }

  /// Schedule `action` at `when` (>= now) under `seq`, a number this caller
  /// took with take_seq() and has queued nothing else under.
  EventHandle schedule_at(TimePoint when, std::uint64_t seq, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(seq < next_seq_);
    EONA_EXPECTS(action);
    std::uint32_t slot = acquire_slot();
    std::uint32_t gen = slots_[slot].gen;
    slots_[slot].record =
        push(when, seq, std::move(action), slot, gen, /*owns_slot=*/true);
    return EventHandle(this, slot, gen);
  }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Move a pending event to absolute time `when` (>= now), keeping its
  /// action and its handle. The event takes a fresh sequence number, so it
  /// fires exactly where cancel(handle) followed by schedule_at(when, same
  /// action) would have put it -- after every event already queued at
  /// `when` -- but its one queue entry moves in place instead of a dead one
  /// being left behind. Returns false, and changes nothing, when `handle`
  /// is not pending (fired, cancelled, default, or another scheduler's).
  bool rekey(const EventHandle& handle, TimePoint when) {
    if (!owns_pending(handle)) return false;
    EONA_EXPECTS(when >= now_);
    move_key(handle, when, next_seq_++);
    return true;
  }

  /// rekey() under `seq`, a number this caller took with take_seq(): the
  /// event then fires where one queued at take time would have.
  bool rekey(const EventHandle& handle, TimePoint when, std::uint64_t seq) {
    if (!owns_pending(handle)) return false;
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(seq < next_seq_);
    move_key(handle, when, seq);
    return true;
  }

  /// Take the sequence number the next push would get, queueing nothing
  /// (see the file comment for who may use it).
  [[nodiscard]] std::uint64_t take_seq() { return next_seq_++; }

  /// Take the next `count` numbers as one block, as `count` take_seq()
  /// calls would, and return the first (the number the next push would
  /// get when `count` is 0).
  [[nodiscard]] std::uint64_t take_seqs(std::uint64_t count) {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  // --- handle-free posts ---------------------------------------------------
  // Fire-and-forget events (periodic ticks, deferred sweeps) need no
  // handle; posting them skips even the arena slot the schedule_* path
  // claims. Ordering and tie-breaking are identical to schedule_at
  // (same sequence counter), pinned by tests/sim_scheduler_post_test.cpp.

  /// Post `action` at absolute time `when` with no cancellation handle.
  void post_at(TimePoint when, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(action);
    push(when, next_seq_++, std::move(action), kNoSlot, 0,
         /*owns_slot=*/false);
  }

  /// Post `action` after `delay` seconds with no cancellation handle.
  void post_after(Duration delay, Action action) {
    post_at(now_ + delay, std::move(action));
  }

  /// Post `action` at `when`, revocable in bulk through `gate`: if the gate
  /// is closed before the event's turn, the event is skipped without firing.
  void post_at(TimePoint when, const Gate& gate, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(action);
    EONA_EXPECTS(gate_open(gate));
    push(when, next_seq_++, std::move(action), gate.slot_, gate.gen_,
         /*owns_slot=*/false);
  }

  void post_after(Duration delay, const Gate& gate, Action action) {
    post_at(now_ + delay, gate, std::move(action));
  }

  /// Open a revocation gate. Gates are slots in a scheduler-owned arena;
  /// opening reuses closed slots, so steady-state churn allocates nothing.
  [[nodiscard]] Gate open_gate() {
    Gate gate;
    gate.slot_ = acquire_slot();
    gate.gen_ = slots_[gate.slot_].gen;
    return gate;
  }

  /// Close a gate: every event posted through it is skipped (idempotent;
  /// closing an already-closed or default token is a no-op). Resets `gate`
  /// to the default (invalid) token. Lazy, like cancel().
  void close_gate(Gate& gate) {
    if (gate_open(gate)) release_slot(gate.slot_);
    gate = Gate{};
  }

  /// True while `gate` is open (events posted through it will fire).
  [[nodiscard]] bool gate_open(const Gate& gate) const {
    return gate.slot_ != Gate::kNone && slots_[gate.slot_].gen == gate.gen_;
  }

  /// Cancel a pending event. Cancelling an already-fired or already-cancelled
  /// event is a harmless no-op (idempotent). Lazy: the event's queue entry
  /// stays, dead, until it reaches the front (pending_events() counts it).
  void cancel(const EventHandle& handle) {
    if (owns_pending(handle)) release_slot(handle.slot_);
  }

  /// Fire the single next pending event, advancing the clock to its time.
  /// Returns false when the queue is empty.
  bool step() {
    while (!heap_.empty()) {
      const Key top = pop_front();
      Record& rec = records_[top.record];
      if (!live(rec)) {  // cancelled handle or closed gate
        free_record(top.record);
        continue;
      }
      // Release the handle slot before invoking so pending() reads false
      // from inside the action (matches the pre-arena flag semantics).
      if (rec.owns_slot) release_slot(rec.slot);
      // The action may schedule (and so grow the slab): take it out first.
      Action action = std::move(rec.action);
      free_record(top.record);
      EONA_ASSERT(top.when >= now_);
      now_ = top.when;
      ++fired_;
      action();
      return true;
    }
    return false;
  }

  /// Run events until the queue drains or the clock would pass `deadline`.
  /// The clock is left at exactly `deadline` (events at == deadline fire).
  void run_until(TimePoint deadline) {
    EONA_EXPECTS(deadline >= now_);
    while (!empty()) {
      if (next_event_time() > deadline) break;
      step();
    }
    now_ = deadline;
  }

  /// Run until no events remain. Guarded by a generous safety valve so a
  /// buggy self-rescheduling loop fails loudly instead of hanging.
  void run_all(std::uint64_t max_events = 500'000'000) {
    while (step()) {
      if (fired_ > max_events)
        throw Error("scheduler: event budget exhausted (runaway loop?)");
    }
  }

  /// Time of the earliest pending (non-cancelled) event.
  /// Precondition: at least one pending event.
  [[nodiscard]] TimePoint next_event_time() {
    drop_cancelled();
    EONA_EXPECTS(!heap_.empty());
    return heap_.front().when;
  }

  /// Time of the earliest pending event, or `fallback` when the queue is
  /// empty. The O(1) peek barrier loops use to classify a sector as
  /// quiescent for a round (no event to run before the round's target).
  [[nodiscard]] TimePoint next_event_time_or(TimePoint fallback) {
    drop_cancelled();
    return heap_.empty() ? fallback : heap_.front().when;
  }

  [[nodiscard]] bool empty() {
    drop_cancelled();
    return heap_.empty();
  }

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Heap key: the whole ordering, plus the record it belongs to.
  struct Key {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t record;
  };
  static_assert(sizeof(Key) == 24);
  /// Side-slab record of one queued event.
  struct Record {
    Action action;
    std::uint32_t heap_pos = 0;  ///< index of this record's key in heap_
    std::uint32_t slot = kNoSlot;  ///< liveness token; kNoSlot: plain post
    std::uint32_t gen = 0;
    bool owns_slot = false;  ///< schedule_* entries: slot freed on fire
  };
  /// Gate/handle arena slot. `record` is meaningful only while a schedule_*
  /// event owns the slot.
  struct Slot {
    std::uint32_t gen;
    std::uint32_t record;
  };

  [[nodiscard]] std::uint32_t acquire_slot() {
    std::uint32_t slot;
    if (!slot_free_.empty()) {
      slot = slot_free_.back();
      slot_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{0, 0});
    }
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    ++slots_[slot].gen;
    slot_free_.push_back(slot);
  }

  [[nodiscard]] bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot != kNoSlot && slots_[slot].gen == gen;
  }

  /// True if `handle` names an event of this scheduler that is still queued
  /// and has neither fired nor been cancelled.
  [[nodiscard]] bool owns_pending(const EventHandle& handle) const {
    return handle.sched_ == this && slot_live(handle.slot_, handle.gen_);
  }

  [[nodiscard]] bool live(const Record& rec) const {
    return rec.slot == kNoSlot || slots_[rec.slot].gen == rec.gen;
  }

  /// The heap's `moved` step: a key's record learns where the key sits.
  [[nodiscard]] auto track() {
    return [this](const Key& key, std::size_t pos) {
      records_[key.record].heap_pos = static_cast<std::uint32_t>(pos);
    };
  }

  /// Store a new event in a (recycled) record and queue its key.
  std::uint32_t push(TimePoint when, std::uint64_t seq, Action action,
                     std::uint32_t slot, std::uint32_t gen, bool owns_slot) {
    std::uint32_t index;
    if (record_free_.empty()) {
      index = static_cast<std::uint32_t>(records_.size());
      records_.emplace_back();
    } else {
      index = record_free_.back();
      record_free_.pop_back();
    }
    Record& rec = records_[index];
    rec.action = std::move(action);
    rec.slot = slot;
    rec.gen = gen;
    rec.owns_slot = owns_slot;
    heap_.push_back(Key{});
    heap_sift_up(heap_, heap_.size() - 1, Key{when, seq, index}, track());
    return index;
  }

  /// Give a pending event's key a new (when, seq), in place.
  void move_key(const EventHandle& handle, TimePoint when, std::uint64_t seq) {
    const std::uint32_t pos = records_[slots_[handle.slot_].record].heap_pos;
    heap_rekey(heap_, pos, Key{when, seq, heap_[pos].record}, track());
  }

  /// Remove and return the earliest key; its record stays allocated.
  [[nodiscard]] Key pop_front() {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(heap_, 0, last, track());
    return top;
  }

  void free_record(std::uint32_t index) {
    records_[index].action = nullptr;  // drop a dead event's captures now
    record_free_.push_back(index);
  }


  void drop_cancelled() {
    while (!heap_.empty() && !live(records_[heap_.front().record]))
      free_record(pop_front().record);
  }

  std::vector<Key> heap_;              ///< binary min-heap on (when, seq)
  std::vector<Record> records_;        ///< one per queued key, recycled
  std::vector<std::uint32_t> record_free_;  ///< recyclable records
  std::vector<Slot> slots_;                 ///< gate/handle arena
  std::vector<std::uint32_t> slot_free_;    ///< recyclable (released) slots
  TimePoint now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->slot_live(slot_, gen_);
}

/// Repeatedly runs an action at a fixed period until stopped. Used for
/// control loops (AppP/InfP controllers act on their own cadence).
class PeriodicTask {
 public:
  /// Starts ticking `period` seconds after `start_offset`; fires action at
  /// each tick. The first tick is at now + start_offset + period unless
  /// `fire_immediately`.
  PeriodicTask(Scheduler& sched, Duration period, Scheduler::Action action,
               Duration start_offset = 0.0, bool fire_immediately = false)
      : sched_(sched), period_(period), action_(std::move(action)) {
    EONA_EXPECTS(period > 0.0);
    EONA_EXPECTS(start_offset >= 0.0);
    gate_ = sched_.open_gate();
    Duration first = fire_immediately ? start_offset : start_offset + period_;
    sched_.post_after(first, gate_, [this] { tick(); });
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { stop(); }

  /// Stop ticking; idempotent. Closing the gate revokes the pending tick,
  /// so the scheduler never calls back into a destroyed task.
  void stop() {
    stopped_ = true;
    sched_.close_gate(gate_);
  }

  /// Change the period for subsequent ticks (takes effect after the next
  /// already-scheduled tick fires).
  void set_period(Duration period) {
    EONA_EXPECTS(period > 0.0);
    period_ = period;
  }

  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick() {
    if (stopped_) return;
    ++ticks_;
    action_();
    if (!stopped_) sched_.post_after(period_, gate_, [this] { tick(); });
  }

  Scheduler& sched_;
  Duration period_;
  Scheduler::Action action_;
  Gate gate_;
  bool stopped_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace eona::sim
