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
// Allocation: publish() performs no allocation -- it walks a flat slot
// vector and invokes the stored callbacks. Subscribe/unsubscribe are cold
// paths and may allocate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace eona::sim {

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
    Subscription(std::type_index type, std::uint64_t id)
        : type_(type), id_(id) {}
    std::type_index type_ = typeid(void);
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
    Channel& channel = channels_[std::type_index(typeid(E))];
    std::uint64_t id = next_id_++;
    channel.slots.push_back(
        Slot{id, [h = std::move(handler)](const void* event) {
               h(*static_cast<const E*>(event));
             }});
    return Subscription(std::type_index(typeid(E)), id);
  }

  /// Remove a subscription; idempotent, and safe to call from inside a
  /// handler (even the one being removed).
  void unsubscribe(Subscription& sub) {
    if (sub.id_ == 0) return;
    auto it = channels_.find(sub.type_);
    if (it != channels_.end()) {
      Channel& channel = it->second;
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
    auto it = channels_.find(std::type_index(typeid(E)));
    if (it == channels_.end()) return;
    Channel& channel = it->second;
    ++channel.dispatch_depth;
    // Snapshot the size: handlers subscribed mid-dispatch (which may also
    // reallocate the vector) must not see this event.
    std::size_t count = channel.slots.size();
    for (std::size_t i = 0; i < count; ++i) {
      if (channel.slots[i].handler) channel.slots[i].handler(&event);
    }
    if (--channel.dispatch_depth == 0 && channel.dead) compact(channel);
  }

  /// Live subscriber count for E (dead-but-uncompacted slots excluded).
  template <typename E>
  [[nodiscard]] std::size_t subscriber_count() const {
    auto it = channels_.find(std::type_index(typeid(E)));
    if (it == channels_.end()) return 0;
    std::size_t n = 0;
    for (const Slot& slot : it->second.slots)
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

  std::unordered_map<std::type_index, Channel> channels_;
  std::uint64_t next_id_ = 1;
};

}  // namespace eona::sim
