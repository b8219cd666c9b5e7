// First-class link up/down semantics across the data plane:
//  * the Network's dynamic up/down overlay (effective vs configured
//    capacity, topology epochs, exactly-zero stranded shares),
//  * zero-capacity edge cases (no NaN utilisation, link_congested without a
//    divide-by-zero, empty-path flows),
//  * failure-aware Routing (down links excluded, fallback-path cache
//    invalidated per epoch),
//  * TransferManager stranding (aborts with the distinct "link-down" reason
//    instead of silently starving; rerouted flows survive the sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/transfer.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"

namespace eona::net {
namespace {

class LinkUpDownTest : public ::testing::Test {
 protected:
  LinkUpDownTest() {
    a = topo.add_node(NodeKind::kRouter, "a");
    b = topo.add_node(NodeKind::kRouter, "b");
    c = topo.add_node(NodeKind::kRouter, "c");
    ab = topo.add_link(a, b, mbps(10), milliseconds(1), "ab");
    ac = topo.add_link(a, c, mbps(10), milliseconds(5), "ac");
    cb = topo.add_link(c, b, mbps(10), milliseconds(5), "cb");
    net.emplace(topo);
  }
  Topology topo;
  NodeId a, b, c;
  LinkId ab, ac, cb;
  std::optional<Network> net;
};

// --- up/down overlay -------------------------------------------------------

TEST_F(LinkUpDownTest, DownZeroesEffectiveCapacityKeepsConfigured) {
  EXPECT_DOUBLE_EQ(net->link_capacity(ab), mbps(10));
  net->set_link_up(ab, false);
  EXPECT_FALSE(net->link_up(ab));
  EXPECT_DOUBLE_EQ(net->link_capacity(ab), 0.0);
  EXPECT_DOUBLE_EQ(net->configured_link_capacity(ab), mbps(10));
  // Capacity configured mid-outage takes effect only on link up.
  net->set_link_capacity(ab, mbps(4));
  EXPECT_DOUBLE_EQ(net->link_capacity(ab), 0.0);
  net->set_link_up(ab, true);
  EXPECT_DOUBLE_EQ(net->link_capacity(ab), mbps(4));
  EXPECT_DOUBLE_EQ(net->configured_link_capacity(ab), mbps(4));
}

TEST_F(LinkUpDownTest, EpochBumpsOncePerTransition) {
  std::uint64_t epoch0 = net->topology_epoch();
  net->set_link_up(ab, true);  // already up: idempotent, no epoch bump
  EXPECT_EQ(net->topology_epoch(), epoch0);
  net->set_link_up(ab, false);
  EXPECT_EQ(net->topology_epoch(), epoch0 + 1);
  net->set_link_up(ab, false);  // idempotent again
  EXPECT_EQ(net->topology_epoch(), epoch0 + 1);
  net->set_link_up(ab, true);
  EXPECT_EQ(net->topology_epoch(), epoch0 + 2);
}

TEST_F(LinkUpDownTest, DownLinkStrandsItsFlowsAtExactlyZero) {
  FlowId direct = net->add_flow({ab});
  FlowId detour = net->add_flow({ac, cb});
  EXPECT_GT(net->rate(direct), 0.0);
  net->set_link_up(ab, false);
  // Exactly 0, not "very small": stranded is a distinct state.
  EXPECT_EQ(net->rate(direct), 0.0);
  EXPECT_FALSE(net->path_up(net->path(direct)));
  // The detour shares no link with the outage and keeps its full rate.
  EXPECT_DOUBLE_EQ(net->rate(detour), mbps(10));
  EXPECT_TRUE(net->path_up(net->path(detour)));
  net->set_link_up(ab, true);
  EXPECT_DOUBLE_EQ(net->rate(direct), mbps(10));
}

// --- zero-capacity edge cases ---------------------------------------------

TEST_F(LinkUpDownTest, ZeroCapacitySharesAreExactlyZeroNoNan) {
  FlowId flow = net->add_flow({ab});
  net->set_link_capacity(ab, 0.0);
  EXPECT_EQ(net->rate(flow), 0.0);
  EXPECT_FALSE(std::isnan(net->rate(flow)));
  EXPECT_DOUBLE_EQ(net->link_allocated(ab), 0.0);
  // A zero-capacity link reads as unusable, not as NaN or +inf.
  EXPECT_DOUBLE_EQ(net->link_utilization(ab), 1.0);
  EXPECT_FALSE(std::isnan(net->link_utilization(ab)));
}

TEST_F(LinkUpDownTest, LinkCongestedOnZeroCapacityDoesNotDivide) {
  net->add_flow({ab});  // elastic: wants more than the 0 it gets
  net->set_link_capacity(ab, 0.0);
  // Utilisation pegs at 1 and the flow is starved: congested, no FP traps.
  EXPECT_TRUE(net->link_congested(ab));
  // An idle zero-capacity link is saturated-by-definition but nobody on it
  // is starved, so it is not "congested".
  net->set_link_capacity(cb, 0.0);
  EXPECT_FALSE(net->link_congested(cb));
}

TEST_F(LinkUpDownTest, EmptyPathFlowIsLocalAndAlwaysUp) {
  FlowId local = net->add_flow({}, mbps(3));
  EXPECT_DOUBLE_EQ(net->rate(local), mbps(3));
  EXPECT_TRUE(net->path_up(net->path(local)));
  net->set_link_up(ab, false);  // unrelated outage cannot strand it
  EXPECT_DOUBLE_EQ(net->rate(local), mbps(3));
}

// --- failure-aware routing -------------------------------------------------

TEST_F(LinkUpDownTest, RoutingAvoidsDownLinksAndRecovers) {
  Routing routing(topo);
  routing.attach_link_state(&*net);
  EXPECT_EQ(routing.shortest_path(a, b), Path{ab});
  net->set_link_up(ab, false);
  EXPECT_EQ(routing.shortest_path(a, b), (Path{ac, cb}));
  net->set_link_up(ab, true);
  EXPECT_EQ(routing.shortest_path(a, b), Path{ab});
}

TEST_F(LinkUpDownTest, FallbackPathCacheInvalidatesPerEpoch) {
  Routing routing(topo);
  routing.attach_link_state(&*net);
  (void)routing.shortest_path(a, b);
  (void)routing.shortest_path(a, b);  // same epoch: memoised
  (void)routing.shortest_path(a, c);
  EXPECT_EQ(routing.cached_path_count(), 2u);
  net->set_link_up(cb, false);  // epoch moves: every cached path is suspect
  (void)routing.shortest_path(a, b);
  EXPECT_EQ(routing.cached_path_count(), 1u);
}

TEST_F(LinkUpDownTest, NoLiveRouteReportsAndThrows) {
  Routing routing(topo);
  routing.attach_link_state(&*net);
  net->set_link_up(ab, false);
  net->set_link_up(ac, false);
  EXPECT_FALSE(routing.has_route(a, b));
  EXPECT_THROW((void)routing.shortest_path(a, b), NotFoundError);
}

TEST_F(LinkUpDownTest, PathViaLinkUsesTheDemandedLinkEvenWhenDown) {
  // Documented contract: callers pick live peering points; the query does
  // not silently reroute around an explicit via link.
  Routing routing(topo);
  routing.attach_link_state(&*net);
  net->set_link_up(ab, false);
  Path path;
  routing.path_via_link(a, ab, b, path);
  EXPECT_EQ(path, Path{ab});
}

// --- transfer stranding ----------------------------------------------------

class StrandingTest : public LinkUpDownTest {
 protected:
  StrandingTest() : transfers(sched, *net) {
    net->set_event_bus(&bus, &sched);
    transfers.set_event_bus(&bus);
    bus.subscribe<sim::TransferAbortedEvent>(
        [this](const sim::TransferAbortedEvent& e) { aborts.push_back(e); });
  }
  sim::Scheduler sched;
  sim::EventBus bus;
  TransferManager transfers;
  std::vector<sim::TransferAbortedEvent> aborts;
};

TEST_F(StrandingTest, DeadLinkAbortsWithLinkDownReason) {
  bool completed = false;
  std::string failure;
  TransferId id = transfers.start(
      {ab}, mbps(10) * 100.0, [&](TransferId) { completed = true; },
      kElasticDemand,
      [&](TransferId, const char* reason) { failure = reason; });
  sched.run_until(1.0);
  ASSERT_TRUE(transfers.active(id));
  net->set_link_up(ab, false);
  sched.run_until(2.0);  // zero-delay sweep fires
  EXPECT_FALSE(transfers.active(id));
  EXPECT_FALSE(completed);
  EXPECT_EQ(failure, TransferManager::kLinkDownReason);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_STREQ(aborts[0].reason, TransferManager::kLinkDownReason);
  EXPECT_EQ(aborts[0].transfer, id.value());
}

TEST_F(StrandingTest, TransferOverAlreadyDeadLinkFailsNextStep) {
  net->set_link_up(ab, false);
  std::string failure;
  transfers.start({ab}, 1.0, [](TransferId) { FAIL() << "completed"; },
                  kElasticDemand,
                  [&](TransferId, const char* reason) { failure = reason; });
  sched.run_until(0.1);
  EXPECT_EQ(failure, TransferManager::kLinkDownReason);
  EXPECT_EQ(transfers.active_count(), 0u);
}

TEST_F(StrandingTest, TransferStartedInsideABatchOverADeadLinkAborts) {
  net->set_link_up(ab, false);
  std::string failure;
  TransferId id;
  {
    Network::Batch batch(*net);
    id = transfers.start(
        {ab}, 1.0, [](TransferId) { FAIL() << "completed"; }, kElasticDemand,
        [&](TransferId, const char* reason) { failure = reason; });
  }
  sched.run_until(0.1);
  EXPECT_FALSE(transfers.active(id));
  EXPECT_EQ(failure, TransferManager::kLinkDownReason);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].transfer, id.value());
}

TEST_F(StrandingTest, LinkDyingInTheStartingBatchAbortsTheTransfer) {
  // start() sees a live path and rate 0; only the commit's report (rate
  // 0 on a now-dead path, found through the flow's owner tag) strands it.
  std::string failure;
  TransferId id;
  {
    Network::Batch batch(*net);
    id = transfers.start(
        {ab}, 1.0, [](TransferId) { FAIL() << "completed"; }, kElasticDemand,
        [&](TransferId, const char* reason) { failure = reason; });
    net->set_link_up(ab, false);
  }
  sched.run_until(0.1);
  EXPECT_FALSE(transfers.active(id));
  EXPECT_EQ(failure, TransferManager::kLinkDownReason);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].transfer, id.value());
}

TEST_F(StrandingTest, CongestionStarvedTransferIsNotAborted) {
  // Rate 0 from contention alone must NOT abort: only a dead link does.
  transfers.start({ab}, mbps(10) * 1000.0, [](TransferId) {});
  TransferId starved = transfers.start(
      {ab}, 1.0, [](TransferId) {}, 0.0,  // demand 0: rate exactly 0
      [](TransferId, const char*) { FAIL() << "aborted a live flow"; });
  sched.run_until(5.0);
  EXPECT_TRUE(transfers.active(starved));
}

TEST_F(StrandingTest, RerouteBeforeTheSweepSavesTheTransfer) {
  bool failed = false;
  TransferId id = transfers.start(
      {ab}, mbps(10) * 5.0, [](TransferId) {}, kElasticDemand,
      [&](TransferId, const char*) { failed = true; });
  sched.run_until(1.0);
  net->set_link_up(ab, false);  // queues the abort sweep at now+0
  // A controller reacting synchronously (InfP on the fault event) moves the
  // flow to the surviving path before the sweep runs: the transfer lives.
  net->reroute(transfers.flow(id), {ac, cb});
  sched.run_until(2.0);
  EXPECT_TRUE(transfers.active(id));
  EXPECT_FALSE(failed);
  sched.run_until(60.0);
  EXPECT_FALSE(transfers.active(id));  // completed over the detour
  EXPECT_FALSE(failed);
}

}  // namespace
}  // namespace eona::net
