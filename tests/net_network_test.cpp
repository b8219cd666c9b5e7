// Tests for the dynamic Network layer: flow lifecycle, rate recomputation,
// change hooks, dynamic capacity, link statistics, and introspection.
#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace eona::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() {
    a = topo.add_node(NodeKind::kRouter, "a");
    b = topo.add_node(NodeKind::kRouter, "b");
    c = topo.add_node(NodeKind::kRouter, "c");
    ab = topo.add_link(a, b, mbps(10), milliseconds(1));
    bc = topo.add_link(b, c, mbps(20), milliseconds(1));
  }
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;
};

TEST_F(NetworkTest, SingleElasticFlowFillsBottleneck) {
  Network net(topo);
  FlowId f = net.add_flow({ab, bc});
  EXPECT_NEAR(net.rate(f), mbps(10), 1.0);
  EXPECT_NEAR(net.link_utilization(ab), 1.0, 1e-6);
  EXPECT_NEAR(net.link_utilization(bc), 0.5, 1e-6);
  EXPECT_EQ(net.link_flow_count(ab), 1);
}

TEST_F(NetworkTest, RatesRebalanceOnArrivalAndDeparture) {
  Network net(topo);
  FlowId f1 = net.add_flow({ab});
  EXPECT_NEAR(net.rate(f1), mbps(10), 1.0);
  FlowId f2 = net.add_flow({ab});
  EXPECT_NEAR(net.rate(f1), mbps(5), 1.0);
  EXPECT_NEAR(net.rate(f2), mbps(5), 1.0);
  net.remove_flow(f2);
  EXPECT_NEAR(net.rate(f1), mbps(10), 1.0);
  EXPECT_FALSE(net.contains(f2));
}

TEST_F(NetworkTest, SetDemandCapsAndReleases) {
  Network net(topo);
  FlowId f1 = net.add_flow({ab});
  FlowId f2 = net.add_flow({ab});
  net.set_demand(f1, mbps(2));
  EXPECT_NEAR(net.rate(f1), mbps(2), 1.0);
  EXPECT_NEAR(net.rate(f2), mbps(8), 1.0);
  net.set_demand(f1, kElasticDemand);
  EXPECT_NEAR(net.rate(f1), mbps(5), 1.0);
}

TEST_F(NetworkTest, RerouteMovesLoad) {
  Network net(topo);
  FlowId f = net.add_flow({ab});
  EXPECT_EQ(net.link_flow_count(ab), 1);
  net.reroute(f, {bc});
  EXPECT_EQ(net.link_flow_count(ab), 0);
  EXPECT_EQ(net.link_flow_count(bc), 1);
  EXPECT_NEAR(net.rate(f), mbps(20), 1.0);
}

TEST_F(NetworkTest, RatesChangedHookFiresOncePerChange) {
  Network net(topo);
  int hook_calls = 0;
  std::vector<RateReport> reports;
  net.set_rates_changed_hook([&](const RateReport& report) {
    ++hook_calls;
    reports.push_back(report);
  });
  FlowId f = net.add_flow({ab});
  net.set_demand(f, mbps(1));
  net.reroute(f, {bc});
  net.set_link_capacity(ab, mbps(5));
  net.remove_flow(f);
  EXPECT_EQ(hook_calls, 5);
  // First mutation: the new flow's rate moved 0 -> capacity.
  ASSERT_EQ(reports[0].flows.size(), 1u);
  EXPECT_EQ(reports[0].flows[0].flow, f);
  EXPECT_TRUE(reports[0].flows[0].moved);
  EXPECT_NEAR(reports[0].flows[0].rate, mbps(10), 1.0);
  // Capacity change on the now-empty link ab moves no flow rate.
  EXPECT_TRUE(reports[3].flows.empty() && reports[3].classes.empty());
  EXPECT_TRUE(reports[4].flows.empty() && reports[4].classes.empty());
}

TEST_F(NetworkTest, ReportsOnlyFlowsWhoseRateMoved) {
  Network net(topo);
  FlowId f1 = net.add_flow({ab});
  FlowId f2 = net.add_flow({bc});
  RateReport last;
  net.set_rates_changed_hook(
      [&](const RateReport& report) { last = report; });
  // Shrinking ab only moves f1's class; f2's component is untouched even
  // under a full re-solve (bit-identical recompute).
  net.set_link_capacity(ab, mbps(4));
  EXPECT_TRUE(last.flows.empty());
  ASSERT_EQ(last.classes.size(), 1u);
  EXPECT_EQ(last.classes[0].route, net.route(f1));
  EXPECT_NEAR(last.classes[0].rate, mbps(4), 1.0);
  EXPECT_NE(net.route(f2), net.route(f1));
}

TEST_F(NetworkTest, NoopDemandChangeSkipsHooks) {
  Network net(topo);
  FlowId f = net.add_flow({ab}, mbps(3));
  int hook_calls = 0;
  net.set_rates_changed_hook(
      [&](const RateReport&) { ++hook_calls; });
  net.set_demand(f, mbps(3));
  EXPECT_EQ(hook_calls, 0);
  net.set_link_capacity(ab, net.link_capacity(ab));
  EXPECT_EQ(hook_calls, 0);
}

TEST_F(NetworkTest, DynamicCapacityChangesRates) {
  Network net(topo);
  FlowId f = net.add_flow({ab});
  net.set_link_capacity(ab, mbps(4));
  EXPECT_NEAR(net.rate(f), mbps(4), 1.0);
  EXPECT_DOUBLE_EQ(net.link_capacity(ab), mbps(4));
  net.set_link_capacity(ab, 0.0);
  EXPECT_NEAR(net.rate(f), 0.0, 1e-6);
  EXPECT_DOUBLE_EQ(net.link_utilization(ab), 1.0);  // unusable reads as full
}

TEST_F(NetworkTest, CongestionRequiresSaturationAndStarvation) {
  Network net(topo);
  // One demand-capped flow below capacity: not congested.
  FlowId f1 = net.add_flow({ab}, mbps(3));
  EXPECT_FALSE(net.link_congested(ab));
  // One elastic flow saturates and is starved: congested.
  net.add_flow({ab});
  EXPECT_TRUE(net.link_congested(ab));
  net.remove_flow(f1);
  EXPECT_TRUE(net.link_congested(ab));  // the elastic flow alone still wants more
}

TEST_F(NetworkTest, SaturatedButSatisfiedIsNotCongested) {
  Network net(topo);
  net.add_flow({ab}, mbps(10));  // demand exactly equals capacity
  EXPECT_NEAR(net.link_utilization(ab), 1.0, 1e-9);
  EXPECT_FALSE(net.link_congested(ab));
}

TEST_F(NetworkTest, FlowsOnAndEndpointIntrospection) {
  Network net(topo);
  FlowId f1 = net.add_flow({ab, bc});
  FlowId f2 = net.add_flow({bc});
  std::vector<FlowId> on_bc = net.flows_on(bc);
  ASSERT_EQ(on_bc.size(), 2u);
  EXPECT_EQ(on_bc[0], f1);
  EXPECT_EQ(on_bc[1], f2);
  EXPECT_EQ(net.flow_src(f1), a);
  EXPECT_EQ(net.flow_dst(f1), c);
  EXPECT_EQ(net.flow_src(f2), b);
}

TEST_F(NetworkTest, FlowsOnStaysInIdOrderThroughChurn) {
  // The per-link index keeps ascending flow-id order through appends,
  // in-place removals and the ordered re-insert of a reroute; a path that
  // crosses a link twice holds two adjacent entries but is listed once.
  Network net(topo);
  FlowId f0 = net.add_flow({ab, bc, ab});
  FlowId f1 = net.add_flow({ab});
  FlowId f2 = net.add_flow({bc});
  FlowId f3 = net.add_flow({ab, bc});
  net.remove_flow(f1);
  FlowId f4 = net.add_flow({ab});  // reuses f1's slot, newest id
  net.reroute(f2, {ab, bc, ab});   // older id lands before f3 and f4
  EXPECT_EQ(net.flows_on(ab), (std::vector<FlowId>{f0, f2, f3, f4}));
  EXPECT_EQ(net.flows_on(bc), (std::vector<FlowId>{f0, f2, f3}));
  EXPECT_EQ(net.link_flow_count(ab), 6);  // f0 and f2 count twice
  net.reroute(f0, {bc});
  net.remove_flow(f3);
  EXPECT_EQ(net.flows_on(ab), (std::vector<FlowId>{f2, f4}));
  EXPECT_EQ(net.flows_on(bc), (std::vector<FlowId>{f0, f2}));
  EXPECT_EQ(net.link_flow_count(ab), 3);
  // Every flow is elastic; ab (10 Mbps) carries f2 twice and f4 once.
  EXPECT_NEAR(net.rate(f2), mbps(10) / 3.0, 1.0);
  EXPECT_NEAR(net.link_allocated(ab), mbps(10), 1.0);
}

TEST_F(NetworkTest, PredictedShareAccountsForExistingFlows) {
  Network net(topo);
  EXPECT_NEAR(net.predicted_share({ab}), mbps(10), 1.0);
  net.add_flow({ab});
  EXPECT_NEAR(net.predicted_share({ab}), mbps(5), 1.0);
  EXPECT_NEAR(net.predicted_share({ab, bc}), mbps(5), 1.0);
}

TEST_F(NetworkTest, UnknownFlowThrows) {
  Network net(topo);
  EXPECT_THROW((void)net.rate(FlowId(99)), NotFoundError);
  EXPECT_THROW(net.remove_flow(FlowId(99)), NotFoundError);
  EXPECT_THROW(net.set_demand(FlowId(99), 1.0), NotFoundError);
}

TEST_F(NetworkTest, FlowIdsAreNeverReused) {
  Network net(topo);
  FlowId f1 = net.add_flow({ab});
  net.remove_flow(f1);
  FlowId f2 = net.add_flow({ab});
  EXPECT_NE(f1, f2);
}

TEST_F(NetworkTest, DeterministicRatesRegardlessOfInsertionPattern) {
  Network net1(topo), net2(topo);
  FlowId a1 = net1.add_flow({ab});
  net1.add_flow({ab, bc});
  net1.remove_flow(a1);
  net1.add_flow({ab});

  net2.add_flow({ab, bc});
  net2.add_flow({ab});
  // Same multiset of flows; rates must match by path.
  double total1 = net1.link_allocated(ab);
  double total2 = net2.link_allocated(ab);
  EXPECT_NEAR(total1, total2, 1e-9);
}

}  // namespace
}  // namespace eona::net
