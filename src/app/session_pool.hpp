// Ownership and lifecycle for dynamically spawned video sessions.
//
// Players finish asynchronously (their DoneCallback fires from inside their
// own event handlers), so destruction must be deferred: the pool collects
// the final record, then destroys finished players in one zero-delay sweep.
//
// Storage is struct-of-arrays style: players live in fixed-size slabs owned
// by the pool (placement-new, recycled through a free list -- no
// per-session heap allocation at steady state) and are addressed through a
// dense slot vector with a session-id -> slot index. Iteration walks the
// slot vector in index order, which is a deterministic function of the
// spawn/finish history. spawn_player is the only way in: every player
// lives in slab storage. Slabs are allocated uninitialized: placement-new
// constructs every member of a player (each is set by the constructor or a
// default member initializer), so zero-filling a slab would only make every
// page of it resident at the first spawn, while a sparse pool's players
// never reach most of them.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/video_player.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace eona::app {

/// Final per-session outcome, including the counters that live on the
/// player (collected before the player is destroyed).
struct SessionSummary {
  telemetry::SessionRecord record;
  std::uint64_t stalls = 0;
  std::uint64_t cdn_switches = 0;
  std::uint64_t server_switches = 0;
};

/// Owns active VideoPlayers; collects final session records.
class SessionPool {
 public:
  /// When `network` is given, bulk operations (abort_all) coalesce their
  /// flow removals into a single Network batch: one rate recompute instead
  /// of one per aborted session.
  explicit SessionPool(sim::Scheduler& sched, net::Network* network = nullptr)
      : sched_(sched), network_(network), gate_(sched.open_gate()) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  ~SessionPool() {
    sched_.close_gate(gate_);
    for (VideoPlayer*& player : slots_) destroy(player);
  }

  /// Emit session lifecycle events (start/stall/finish) on `bus`; spawned
  /// players inherit it for stall events.
  void set_event_bus(sim::EventBus* bus) { bus_ = bus; }

  /// Pre-size the slot table and recycling lists for `n` concurrent
  /// sessions (slabs still grow on demand).
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_list_.reserve(n);
    free_storage_.reserve(n);
  }

  /// Construct a player in pool-owned slab storage, register it, and start
  /// it. Forwards `args` to the VideoPlayer constructor and appends the
  /// pool's done-callback, so callers pass everything up to and including
  /// the engagement model. This is the allocation-free hot path: steady
  /// session churn recycles slab slots and never touches the heap.
  template <typename... Args>
  SessionId spawn_player(Args&&... args) {
    void* storage = acquire_storage();
    VideoPlayer* player = nullptr;
    try {
      player = ::new (storage) VideoPlayer(
          std::forward<Args>(args)...,
          [this](const telemetry::SessionRecord& record) {
            on_session_done(record);
          });
    } catch (...) {
      free_storage_.push_back(storage);
      throw;
    }
    return adopt(player);
  }

  [[nodiscard]] std::size_t active_count() const { return active_; }

  /// Active players currently in a buffering stall.
  [[nodiscard]] std::size_t stalled_count() const {
    std::size_t n = 0;
    for (const VideoPlayer* player : slots_)
      if (player != nullptr && player->stalled()) ++n;
    return n;
  }

  /// Active players stranded by a data-plane fetch abort and not yet
  /// resumed on a live path (see VideoPlayer::stranded()).
  [[nodiscard]] std::size_t stranded_count() const {
    std::size_t n = 0;
    for (const VideoPlayer* player : slots_)
      if (player != nullptr && player->stranded()) ++n;
    return n;
  }
  [[nodiscard]] const std::vector<SessionSummary>& summaries() const {
    return summaries_;
  }

  [[nodiscard]] bool contains(SessionId id) const {
    return find_slot(id) != kNoSlot;
  }

  [[nodiscard]] VideoPlayer& player(SessionId id) {
    std::uint32_t slot = find_slot(id);
    if (slot == kNoSlot)
      throw NotFoundError("session " + std::to_string(id.value()));
    return *slots_[slot];
  }

  /// Iterate active players (e.g. the AppP controller pushing guidance) in
  /// slot order -- deterministic given the spawn/finish history.
  void for_each(const std::function<void(VideoPlayer&)>& fn) {
    for (VideoPlayer* player : slots_)
      if (player != nullptr) fn(*player);
  }

  /// Abort every active session (end of experiment); final beacons fire.
  /// With an attached network, the burst of transfer cancellations lands as
  /// one batched recompute. O(n): the player teardown is deferred to one
  /// sweep, so no per-session erase churn happens inside this loop.
  void abort_all() {
    std::optional<net::Network::Batch> batch;
    if (network_ != nullptr) batch.emplace(*network_);
    // Collect first: abort() triggers on_session_done -> deferred erase.
    std::vector<SessionId> ids;
    ids.reserve(active_);
    for (const VideoPlayer* player : slots_)
      if (player != nullptr && !player->finished())
        ids.push_back(player->session());
    for (SessionId id : ids) {
      std::uint32_t slot = find_slot(id);
      if (slot != kNoSlot) slots_[slot]->abort();
    }
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Players per slab. Big enough to amortize the allocation, small enough
  /// that short experiments don't overshoot wildly.
  static constexpr std::size_t kSlabPlayers = 64;

  /// Register a constructed player under a recycled slot, wire the bus, and
  /// start it: bus attach, SessionStartedEvent, then start().
  SessionId adopt(VideoPlayer* player) {
    SessionId id = player->session();
    std::uint32_t slot;
    if (!free_list_.empty()) {
      slot = free_list_.back();
      free_list_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot] = player;
    map_slot(id, slot);
    ++active_;
    if (bus_ != nullptr) {
      player->set_event_bus(bus_);
      bus_->publish(sim::SessionStartedEvent{sched_.now(), id});
    }
    player->start();
    return id;
  }

  void* acquire_storage() {
    if (!free_storage_.empty()) {
      void* storage = free_storage_.back();
      free_storage_.pop_back();
      return storage;
    }
    if (slab_used_ == kSlabPlayers) {
      slabs_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          kSlabPlayers * sizeof(VideoPlayer)));
      slab_used_ = 0;
    }
    return slabs_.back().get() + (slab_used_++) * sizeof(VideoPlayer);
  }

  void destroy(VideoPlayer*& player) {
    if (player == nullptr) return;
    player->~VideoPlayer();
    free_storage_.push_back(static_cast<void*>(player));
    player = nullptr;
  }

  /// id -> slot through a dense vector indexed by id value (session ids are
  /// assigned sequentially by scenarios; sparse ids just leave holes).
  void map_slot(SessionId id, std::uint32_t slot) {
    auto index = static_cast<std::size_t>(id.value());
    if (index >= slot_of_.size()) slot_of_.resize(index + 1, kNoSlot);
    slot_of_[index] = slot;
  }

  [[nodiscard]] std::uint32_t find_slot(SessionId id) const {
    auto index = static_cast<std::size_t>(id.value());
    return index < slot_of_.size() ? slot_of_[index] : kNoSlot;
  }

  void on_session_done(const telemetry::SessionRecord& record) {
    SessionId id = record.session;
    SessionSummary summary;
    summary.record = record;
    std::uint32_t slot = find_slot(id);
    if (slot != kNoSlot) {
      const VideoPlayer& done = *slots_[slot];
      summary.stalls = done.stall_count();
      summary.cdn_switches = done.cdn_switches();
      summary.server_switches = done.server_switches();
    }
    summaries_.push_back(summary);
    if (bus_ != nullptr)
      bus_->publish(sim::SessionFinishedEvent{
          sched_.now(), id, summary.stalls, summary.cdn_switches});
    // Deferred destruction: the player is still on the call stack. One
    // zero-delay sweep drains however many sessions finished at this
    // instant (an abort_all burst costs one event, not one per session).
    // Gated on the pool's lifetime so the post never outlives the pool.
    pending_erase_.push_back(id);
    if (!erase_sweep_scheduled_) {
      erase_sweep_scheduled_ = true;
      sched_.post_after(0.0, gate_, [this] { erase_pending(); });
    }
  }

  void erase_pending() {
    erase_sweep_scheduled_ = false;
    std::vector<SessionId> ids;
    ids.swap(pending_erase_);
    for (SessionId id : ids) {
      std::uint32_t slot = find_slot(id);
      if (slot == kNoSlot) continue;
      destroy(slots_[slot]);
      slot_of_[static_cast<std::size_t>(id.value())] = kNoSlot;
      free_list_.push_back(slot);
      --active_;
    }
  }

  sim::Scheduler& sched_;
  net::Network* network_;
  sim::EventBus* bus_ = nullptr;
  sim::Gate gate_;  ///< revokes the deferred erase sweep if the pool dies

  std::vector<VideoPlayer*> slots_;      ///< dense player table
  std::vector<std::uint32_t> free_list_;  ///< recyclable slot indices
  std::vector<std::uint32_t> slot_of_;   ///< id value -> slot (kNoSlot = gone)
  std::size_t active_ = 0;

  // Slab arena for spawn_player storage.
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t slab_used_ = kSlabPlayers;  ///< forces a slab on first use
  std::vector<void*> free_storage_;       ///< recycled player-sized blocks

  std::vector<SessionId> pending_erase_;
  bool erase_sweep_scheduled_ = false;

  std::vector<SessionSummary> summaries_;
};

}  // namespace eona::app
