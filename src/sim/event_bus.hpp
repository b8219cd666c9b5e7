// Typed publish/subscribe bus threaded through every layer of a wired
// world: the network emits saturation transitions, report channels emit
// publish/drop/delivery, controllers emit steering and migration decisions
// with attributed reasons, session pools emit lifecycle events. Subscribers
// (the JSONL TraceWriter, the telemetry StoreRecorder, a scenario counting
// one event type) observe without being wired to any producer.
//
// Determinism contract: dispatch order is subscription order per event
// type, publishers run synchronously on the simulation thread, and the bus
// itself holds no clock or randomness -- so for a fixed seed the event
// stream is bit-for-bit reproducible (pinned by the golden-trace tests).
//
// Cost: each event type has a dense process-wide id, and a bus keeps its
// channels in a vector indexed by that id, so publish() hashes nothing and
// allocates nothing -- with no subscribers it is a bounds check and an
// empty check; otherwise it walks a flat slot vector and invokes the stored
// callbacks. Subscribe/unsubscribe are cold paths and may allocate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace eona::sim {

namespace detail {

/// Ids handed out so far, one per event type, shared by every bus.
inline std::atomic<std::uint32_t> event_type_count{0};

/// The dense id of event type E: drawn from one counter the first time any
/// thread asks (the static's initialisation is thread-safe), fixed after.
template <typename E>
std::uint32_t event_type_id() {
  static const std::uint32_t id = event_type_count.fetch_add(1);
  return id;
}

}  // namespace detail

/// Synchronous, deterministic, type-erased event bus.
///
/// Reentrancy: a handler may publish further events (nested dispatch) and
/// may unsubscribe any subscription -- including its own -- mid-dispatch;
/// removal during dispatch marks the slot dead (it stops receiving
/// immediately) and the vector is compacted once the outermost dispatch of
/// that type unwinds. Handlers subscribed during a dispatch do not receive
/// the event being dispatched.
class EventBus {
 public:
  /// Identifies one subscription; pass back to unsubscribe(). Value type,
  /// default-constructed == empty.
  class Subscription {
   public:
    Subscription() = default;
    [[nodiscard]] bool active() const { return id_ != 0; }

   private:
    friend class EventBus;
    Subscription(std::uint32_t type, std::uint64_t id)
        : type_(type), id_(id) {}
    std::uint32_t type_ = 0;
    std::uint64_t id_ = 0;
  };

  EventBus() = default;
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Register a handler for events of type E. Handlers fire in
  /// subscription order.
  template <typename E>
  Subscription subscribe(std::function<void(const E&)> handler) {
    EONA_EXPECTS(handler != nullptr);
    const std::uint32_t type = detail::event_type_id<E>();
    if (type >= channels_.size()) channels_.resize(type + 1);
    std::uint64_t id = next_id_++;
    // The wrapper holds the user's std::function by value, too large for
    // the small-object buffer, so each handler lives on the heap and a slot
    // vector that grows mid-dispatch never moves a running closure.
    channels_[type].slots.push_back(
        Slot{id, [h = std::move(handler)](const void* event) {
               h(*static_cast<const E*>(event));
             }});
    return Subscription(type, id);
  }

  /// Remove a subscription; idempotent, and safe to call from inside a
  /// handler (even the one being removed).
  void unsubscribe(Subscription& sub) {
    if (sub.id_ == 0) return;
    if (sub.type_ < channels_.size()) {
      Channel& channel = channels_[sub.type_];
      for (Slot& slot : channel.slots) {
        if (slot.id == sub.id_) {
          slot.handler = nullptr;  // dead; skipped by any in-flight dispatch
          channel.dead = true;
          break;
        }
      }
      if (channel.dispatch_depth == 0) compact(channel);
    }
    sub = Subscription{};
  }

  /// Deliver `event` synchronously to every live subscriber of E, in
  /// subscription order. No-op (and allocation-free) with no subscribers.
  template <typename E>
  void publish(const E& event) {
    const std::uint32_t type = detail::event_type_id<E>();
    if (type >= channels_.size() || channels_[type].slots.empty()) return;
    ++channels_[type].dispatch_depth;
    // Snapshot the size: handlers subscribed mid-dispatch (which may also
    // reallocate the vector) must not see this event. Re-index the channel
    // after every handler: one that subscribes to a type this bus has not
    // seen grows channels_ and moves every channel.
    std::size_t count = channels_[type].slots.size();
    for (std::size_t i = 0; i < count; ++i) {
      const auto& handler = channels_[type].slots[i].handler;
      if (handler) handler(&event);
    }
    Channel& channel = channels_[type];
    if (--channel.dispatch_depth == 0 && channel.dead) compact(channel);
  }

  /// Live subscriber count for E (dead-but-uncompacted slots excluded).
  template <typename E>
  [[nodiscard]] std::size_t subscriber_count() const {
    const std::uint32_t type = detail::event_type_id<E>();
    if (type >= channels_.size()) return 0;
    std::size_t n = 0;
    for (const Slot& slot : channels_[type].slots)
      if (slot.handler) ++n;
    return n;
  }

 private:
  struct Slot {
    std::uint64_t id;
    std::function<void(const void*)> handler;  ///< null = dead slot
  };
  struct Channel {
    std::vector<Slot> slots;
    int dispatch_depth = 0;  ///< >0 while publish() of this type is live
    bool dead = false;       ///< dead slots awaiting compaction
  };

  static void compact(Channel& channel) {
    std::erase_if(channel.slots,
                  [](const Slot& slot) { return slot.handler == nullptr; });
    channel.dead = false;
  }

  std::vector<Channel> channels_;  ///< indexed by detail::event_type_id
  std::uint64_t next_id_ = 1;
};

}  // namespace eona::sim
