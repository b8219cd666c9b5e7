// Tests for core::ReportFeed, the one consumer path both controllers read
// the other side's reports through, on a hand-built exchange: an InfP
// consumer reads A2I reports from two AppP producers over broker legs, the
// first of them faulted.
//
// The load-bearing guarantees:
//  * robust mode serves last-known-good data through a tick where every
//    fetch misses; naive mode goes blind on the same tick;
//  * unsubscribing a producer removes its data from the view but keeps its
//    fetch counters in the health snapshot;
//  * the stale flag follows the freshness deadline in both modes;
//  * the health snapshot does not depend on whether a bus is attached, and
//    the bus sees one ReportServedEvent per served tick.
#include "eona/robust.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "eona/exchange.hpp"
#include "eona/registry.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace eona::core {
namespace {

/// One InfP consumer and two AppP producers on a broker. Leg 0 carries
/// `leg0`; leg 1 is ideal.
struct Plane {
  explicit Plane(const TenantLink& leg0 = {}) : exchange(registry) {
    appps[0] = registry.register_provider(ProviderKind::kAppP, "vod-0");
    appps[1] = registry.register_provider(ProviderKind::kAppP, "vod-1");
    infp = registry.register_provider(ProviderKind::kInfP, "isp");
    exchange.register_appp(appps[0]);
    exchange.register_appp(appps[1]);
    exchange.register_infp(infp);
    exchange.wire(appps[0], infp, leg0);
    exchange.wire(appps[1], infp);
  }

  ReportFeed<A2IReport> feed(bool robust, RetryPolicy retry = {}) {
    return ReportFeed<A2IReport>(
        sched, infp, "a2i", robust, retry, /*seed_salt=*/0x2545F4914F6CDD1Dull,
        [this](ProviderId appp, TimePoint now) {
          return exchange.fetch_a2i(infp, appp, now);
        },
        [this](ProviderId appp) -> const ChannelStats& {
          return exchange.a2i_leg_stats(appp, infp);
        });
  }

  /// Ticks at t = 10, 20, ..., 10 * `last`: both producers publish a report
  /// whose one group is tagged with the producer's index (as its cdn) when
  /// `publishes(t)`, then the feed refreshes and `after(t)` runs.
  void run(ReportFeed<A2IReport>& feed, int last,
           const std::function<void(TimePoint)>& after,
           const std::function<bool(TimePoint)>& publishes =
               [](TimePoint) { return true; }) {
    for (int i = 1; i <= last; ++i) {
      TimePoint t = 10.0 * i;
      sched.schedule_at(t, [this, &feed, &after, &publishes, t] {
        for (std::uint32_t p = 0; p < 2 && publishes(t); ++p) {
          A2IReport r;
          r.from = appps[p];
          r.generated_at = t;
          QoeGroupReport g;
          g.cdn = CdnId(p);
          g.sessions = 100;  // above any k-anonymity floor
          r.groups.push_back(g);
          exchange.publish_a2i(appps[p], r, t);
        }
        feed.refresh();
        after(t);
      });
    }
    sched.run_all();
  }

  ProviderRegistry registry;
  Exchange exchange;
  sim::Scheduler sched;
  ProviderId appps[2];
  ProviderId infp;
};

/// The producer tags present in a view.
std::vector<std::uint32_t> tags(const std::optional<A2IReport>& view) {
  std::vector<std::uint32_t> out;
  if (view)
    for (const QoeGroupReport& g : view->groups) out.push_back(g.cdn.value());
  return out;
}

TEST(ReportFeed, RobustServesLastKnownGoodWhereNaiveGoesBlind) {
  // Leg 0 is dark from 25 s to 45 s: the ticks at 30 and 40 fetch nothing,
  // and the reports published then are lost.
  TenantLink dark;
  dark.a2i_fault.outages = {{25.0, 45.0}};
  for (bool robust : {true, false}) {
    Plane plane(dark);
    auto feed = plane.feed(robust);
    feed.subscribe(plane.appps[0]);
    std::vector<TimePoint> served;
    plane.run(feed, 6, [&](TimePoint) {
      if (feed.view()) served.push_back(feed.view()->generated_at);
    });
    if (robust)
      EXPECT_EQ(served, (std::vector<TimePoint>{10, 20, 20, 20, 50, 60}));
    else
      EXPECT_EQ(served, (std::vector<TimePoint>{10, 20, 50, 60}));
    const auto health = feed.health();
    EXPECT_EQ(health.fetch_attempts, 6u);
    EXPECT_EQ(health.misses, 2u);
    EXPECT_EQ(health.fresh_hits, 4u);
    EXPECT_EQ(health.publishes, 6u);  // leg 0 only: leg 1 is not subscribed
    EXPECT_EQ(health.drops, 2u);
  }
}

TEST(ReportFeed, UnsubscribeDropsTheDataButKeepsTheCounters) {
  for (bool robust : {true, false}) {
    Plane plane;
    auto feed = plane.feed(robust);
    feed.subscribe(plane.appps[0]);
    feed.subscribe(plane.appps[1]);
    plane.run(feed, 3, [](TimePoint) {});
    EXPECT_EQ(tags(feed.view()), (std::vector<std::uint32_t>{0, 1}));
    const auto before = feed.health();
    EXPECT_EQ(before.fetch_attempts, 6u);
    EXPECT_EQ(before.publishes, 6u);

    feed.unsubscribe(plane.appps[0]);
    // Robust mode rebuilds the view from the remaining fetcher; naive mode
    // holds only what a tick fetched, so it is empty until the next tick.
    EXPECT_EQ(tags(feed.view()), robust ? std::vector<std::uint32_t>{1}
                                        : std::vector<std::uint32_t>{});
    const auto after = feed.health();
    EXPECT_EQ(after.fetch_attempts, before.fetch_attempts);
    EXPECT_EQ(after.fresh_hits, before.fresh_hits);
    EXPECT_EQ(after.publishes, 3u);  // producer counters: live legs only

    EXPECT_THROW(feed.unsubscribe(plane.appps[0]), NotFoundError);
    feed.unsubscribe(plane.appps[1]);
    EXPECT_EQ(feed.health().fetch_attempts, before.fetch_attempts);
    EXPECT_EQ(feed.health().publishes, 0u);
  }
}

TEST(ReportFeed, StaleFlagFollowsTheFreshnessDeadline) {
  RetryPolicy retry;
  retry.freshness_deadline = 15.0;
  for (bool robust : {true, false}) {
    Plane plane;
    auto feed = plane.feed(robust, retry);
    EXPECT_FALSE(feed.stale());    // before the first tick
    EXPECT_FALSE(feed.refresh());  // nothing subscribed: flag untouched
    EXPECT_FALSE(feed.stale());
    feed.subscribe(plane.appps[0]);
    // The producer goes quiet from 30 s to 50 s: the 20 s report is served
    // at ages 10, 20 and 30, past the deadline at the last two.
    std::vector<bool> stale;
    plane.run(
        feed, 7, [&](TimePoint) { stale.push_back(feed.stale()); },
        [](TimePoint t) { return t <= 20.0 || t >= 60.0; });
    EXPECT_EQ(stale,
              (std::vector<bool>{false, false, false, true, true, false, false}))
        << (robust ? "robust" : "naive");
    EXPECT_EQ(feed.health().stale_serves, 2u);
  }
}

TEST(ReportFeed, HealthIsTheSameWithOrWithoutABus) {
  // Only the lossy, jittered leg, with retries: retry chains, misses and
  // stale serves all reach the snapshot.
  TenantLink lossy;
  lossy.a2i_delay = 2.0;
  lossy.a2i_fault.drop_rate = 0.4;
  lossy.a2i_fault.max_extra_delay = 3.0;
  lossy.a2i_fault.seed = 17;
  RetryPolicy retry;
  retry.max_retries = 3;
  retry.base_backoff = 0.5;
  retry.freshness_deadline = 12.0;

  auto run = [&](Plane& plane, sim::EventBus* bus, int& served_ticks) {
    auto feed = plane.feed(/*robust=*/true, retry);
    feed.set_event_bus(bus);
    feed.subscribe(plane.appps[0]);
    plane.run(feed, 30, [&](TimePoint) {
      if (feed.view()) ++served_ticks;
    });
    return feed.health();
  };

  sim::EventBus bus;
  std::vector<sim::ReportServedEvent> events;
  bus.subscribe<sim::ReportServedEvent>(
      [&](const sim::ReportServedEvent& e) { events.push_back(e); });
  Plane with_bus_plane(lossy), without_bus_plane(lossy);
  int served_with_bus = 0, served_without = 0;
  const auto with_bus = run(with_bus_plane, &bus, served_with_bus);
  const auto without = run(without_bus_plane, nullptr, served_without);

  EXPECT_EQ(with_bus, without);
  EXPECT_GT(with_bus.retries, 0u);
  EXPECT_GT(with_bus.drops, 0u);
  EXPECT_GT(with_bus.stale_serves, 0u);
  EXPECT_EQ(served_with_bus, served_without);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(served_with_bus));
  for (const auto& e : events) {
    EXPECT_EQ(e.consumer, with_bus_plane.infp);
    EXPECT_STREQ(e.kind, "a2i");
  }
}

}  // namespace
}  // namespace eona::core
