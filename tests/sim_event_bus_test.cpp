// Unit tests for the typed event bus: subscription-order dispatch,
// reentrancy (nested publish, subscribe/unsubscribe mid-dispatch), slot
// compaction semantics the world's subscribers rely on, and the dense
// per-type ids (channels that grow mid-dispatch, ids first drawn on several
// sector threads at once).
#include "sim/event_bus.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sim/sector.hpp"

namespace eona::sim {
namespace {

struct Ping {
  int value = 0;
};
struct Pong {
  int value = 0;
};

TEST(EventBus, PublishWithNoSubscribersIsANoOp) {
  EventBus bus;
  bus.publish(Ping{1});  // must not throw or allocate a channel entry
  EXPECT_EQ(bus.subscriber_count<Ping>(), 0u);
}

TEST(EventBus, DispatchesInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe<Ping>([&](const Ping&) { order.push_back(1); });
  bus.subscribe<Ping>([&](const Ping&) { order.push_back(2); });
  bus.subscribe<Ping>([&](const Ping&) { order.push_back(3); });
  bus.publish(Ping{});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventBus, ChannelsAreIndependentPerEventType) {
  EventBus bus;
  int pings = 0, pongs = 0;
  bus.subscribe<Ping>([&](const Ping&) { ++pings; });
  bus.subscribe<Pong>([&](const Pong&) { ++pongs; });
  bus.publish(Ping{});
  bus.publish(Ping{});
  bus.publish(Pong{});
  EXPECT_EQ(pings, 2);
  EXPECT_EQ(pongs, 1);
  EXPECT_EQ(bus.subscriber_count<Ping>(), 1u);
  EXPECT_EQ(bus.subscriber_count<Pong>(), 1u);
}

TEST(EventBus, UnsubscribeStopsDeliveryAndIsIdempotent) {
  EventBus bus;
  int count = 0;
  auto sub = bus.subscribe<Ping>([&](const Ping&) { ++count; });
  bus.publish(Ping{});
  bus.unsubscribe(sub);
  bus.unsubscribe(sub);  // idempotent on the reset token
  bus.publish(Ping{});
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(sub.active());
  EXPECT_EQ(bus.subscriber_count<Ping>(), 0u);
}

TEST(EventBus, HandlerMayPublishNestedEvents) {
  EventBus bus;
  std::vector<std::string> log;
  bus.subscribe<Ping>([&](const Ping& e) {
    log.push_back("ping" + std::to_string(e.value));
    if (e.value == 0) bus.publish(Pong{7});
  });
  bus.subscribe<Pong>([&](const Pong& e) {
    log.push_back("pong" + std::to_string(e.value));
  });
  bus.publish(Ping{0});
  EXPECT_EQ(log, (std::vector<std::string>{"ping0", "pong7"}));
}

TEST(EventBus, HandlerMayPublishSameTypeReentrantly) {
  EventBus bus;
  std::vector<int> seen;
  bus.subscribe<Ping>([&](const Ping& e) {
    seen.push_back(e.value);
    if (e.value < 3) bus.publish(Ping{e.value + 1});
  });
  bus.publish(Ping{0});
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventBus, SubscriberAddedDuringDispatchMissesCurrentEvent) {
  EventBus bus;
  int late_calls = 0;
  bus.subscribe<Ping>([&](const Ping&) {
    bus.subscribe<Ping>([&](const Ping&) { ++late_calls; });
  });
  bus.publish(Ping{});
  EXPECT_EQ(late_calls, 0);  // missed the event that created it
  bus.publish(Ping{});
  EXPECT_EQ(late_calls, 1);  // sees the next one (one more was added too)
}

TEST(EventBus, HandlerMayUnsubscribeItselfMidDispatch) {
  EventBus bus;
  int first = 0, second = 0;
  EventBus::Subscription sub;
  sub = bus.subscribe<Ping>([&](const Ping&) {
    ++first;
    bus.unsubscribe(sub);  // removes the handler currently running
  });
  bus.subscribe<Ping>([&](const Ping&) { ++second; });
  bus.publish(Ping{});
  bus.publish(Ping{});
  EXPECT_EQ(first, 1);   // fired once, then removed itself
  EXPECT_EQ(second, 2);  // later subscriber unaffected by the removal
  EXPECT_EQ(bus.subscriber_count<Ping>(), 1u);
}

TEST(EventBus, HandlerMayUnsubscribeALaterHandlerMidDispatch) {
  EventBus bus;
  int removed_calls = 0;
  EventBus::Subscription victim;
  bus.subscribe<Ping>([&](const Ping&) { bus.unsubscribe(victim); });
  victim = bus.subscribe<Ping>([&](const Ping&) { ++removed_calls; });
  bus.publish(Ping{});
  // The victim slot went dead before its turn in the same dispatch.
  EXPECT_EQ(removed_calls, 0);
  EXPECT_EQ(bus.subscriber_count<Ping>(), 1u);
}

TEST(EventBus, UnsubscribeDuringNestedDispatchCompactsAfterUnwind) {
  EventBus bus;
  EventBus::Subscription victim;
  std::vector<int> seen;
  bus.subscribe<Ping>([&](const Ping& e) {
    seen.push_back(e.value);
    if (e.value == 1) bus.publish(Ping{0});  // nested same-type dispatch
    if (e.value == 0) bus.unsubscribe(victim);  // two dispatches in flight
  });
  victim = bus.subscribe<Ping>([&](const Ping& e) { seen.push_back(100 + e.value); });
  bus.publish(Ping{1});
  // Outer event reached handler 1; the nested publish killed the victim
  // before either dispatch got to it.
  EXPECT_EQ(seen, (std::vector<int>{1, 0}));
  bus.publish(Ping{2});
  EXPECT_EQ(seen, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(bus.subscriber_count<Ping>(), 1u);
}

// Event types no other test touches, so their ids are drawn for the first
// time inside the tests below.
template <int N>
struct Fresh {
  std::size_t bus = 0;
  int value = 0;
};

TEST(EventBus, HandlerSubscribingToUnseenTypesGrowsTheChannelsSafely) {
  // The first handler subscribes to three types this bus (and the process)
  // has never seen, so the channel vector reallocates under the running
  // dispatch. That dispatch must re-index its channel after each handler:
  // one that held on to the old channel would read freed memory (ASan
  // reports it; without ASan the moved-from channel's empty slot vector
  // faults) instead of reaching the later Ping handlers.
  EventBus bus;
  std::vector<std::string> log;
  bool subscribed = false;
  bus.subscribe<Ping>([&](const Ping& e) {
    log.push_back("first" + std::to_string(e.value));
    if (subscribed) return;
    subscribed = true;
    bus.subscribe<Fresh<1>>([&](const Fresh<1>& f) {
      log.push_back("fresh1:" + std::to_string(f.value));
    });
    bus.subscribe<Fresh<2>>([&](const Fresh<2>& f) {
      log.push_back("fresh2:" + std::to_string(f.value));
    });
    bus.subscribe<Ping>([&](const Ping& p) {
      log.push_back("late" + std::to_string(p.value));
    });
    bus.subscribe<Fresh<3>>([&](const Fresh<3>& f) {
      log.push_back("fresh3:" + std::to_string(f.value));
      bus.publish(Ping{f.value});  // nested dispatch on the grown vector
    });
  });
  bus.subscribe<Ping>([&](const Ping& e) {
    log.push_back("second" + std::to_string(e.value));
  });
  bus.subscribe<Ping>([&](const Ping& e) {
    log.push_back("third" + std::to_string(e.value));
  });

  bus.publish(Ping{1});
  EXPECT_EQ(log, (std::vector<std::string>{"first1", "second1", "third1"}));
  log.clear();
  bus.publish(Fresh<2>{0, 5});
  bus.publish(Fresh<3>{0, 6});
  bus.publish(Fresh<1>{0, 7});
  EXPECT_EQ(log, (std::vector<std::string>{"fresh2:5", "fresh3:6", "first6",
                                           "second6", "third6", "late6",
                                           "fresh1:7"}));
  EXPECT_EQ(bus.subscriber_count<Ping>(), 4u);
  EXPECT_EQ(bus.subscriber_count<Fresh<1>>(), 1u);
}

TEST(EventBus, SectorThreadsDrawFreshTypeIdsConcurrently) {
  // Each sector job owns a bus and is the first in the process to use
  // several event types, on up to four threads at once (the jobs rotate
  // which type each touches first). Every type must get its own id, and
  // every bus must deliver exactly its own events.
  constexpr std::size_t kJobs = 4;
  std::vector<std::unique_ptr<EventBus>> buses;
  for (std::size_t i = 0; i < kJobs; ++i)
    buses.push_back(std::make_unique<EventBus>());
  std::vector<std::vector<std::pair<std::size_t, int>>> received(kJobs);
  std::atomic<std::size_t> arrived{0};

  SectorRunner runner(kJobs);
  runner.run_round(kJobs, [&](std::size_t job) {
    // Line the jobs up so the first uses overlap, without waiting forever
    // on a worker that claimed two jobs.
    arrived.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(200);
    while (arrived.load() < kJobs &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();

    EventBus& bus = *buses[job];
    auto& log = received[job];
    auto record = [&log](const auto& e) { log.emplace_back(e.bus, e.value); };
    auto use = [&](auto tag) {
      using E = decltype(tag);
      bus.subscribe<E>([record](const E& e) { record(e); });
      bus.publish(E{job, tag.value});
    };
    for (std::size_t k = 0; k < 4; ++k) {
      switch ((job + k) % 4) {
        case 0: use(Fresh<10>{0, 10}); break;
        case 1: use(Fresh<11>{0, 11}); break;
        case 2: use(Fresh<12>{0, 12}); break;
        default: use(Fresh<13>{0, 13}); break;
      }
    }
  });

  std::set<std::uint32_t> ids{detail::event_type_id<Fresh<10>>(),
                              detail::event_type_id<Fresh<11>>(),
                              detail::event_type_id<Fresh<12>>(),
                              detail::event_type_id<Fresh<13>>()};
  EXPECT_EQ(ids.size(), 4u);
  for (std::size_t job = 0; job < kJobs; ++job) {
    std::vector<std::pair<std::size_t, int>> expected;
    for (std::size_t k = 0; k < 4; ++k)
      expected.emplace_back(job, 10 + static_cast<int>((job + k) % 4));
    EXPECT_EQ(received[job], expected) << "bus " << job;
    EXPECT_EQ(buses[job]->subscriber_count<Fresh<10>>(), 1u);
  }
}

}  // namespace
}  // namespace eona::sim
