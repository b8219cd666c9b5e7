// Tests for windowed link statistics.
#include "control/link_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "net/transfer.hpp"

namespace eona::control {
namespace {

class LinkMonitorTest : public ::testing::Test {
 protected:
  LinkMonitorTest() {
    a = topo.add_node(net::NodeKind::kRouter, "a");
    b = topo.add_node(net::NodeKind::kRouter, "b");
    ab = topo.add_link(a, b, mbps(10), milliseconds(1));
    network.emplace(topo);
  }
  net::Topology topo;
  NodeId a, b;
  LinkId ab;
  sim::Scheduler sched;
  std::optional<net::Network> network;
};

TEST_F(LinkMonitorTest, IdleLinkReadsZero) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 10);
  sched.run_until(20.0);
  EXPECT_DOUBLE_EQ(monitor.mean_utilization(ab), 0.0);
  EXPECT_DOUBLE_EQ(monitor.starved_fraction(ab), 0.0);
  EXPECT_FALSE(monitor.congested(ab, 0.8));
  EXPECT_GT(monitor.sample_count(), 15u);
}

TEST_F(LinkMonitorTest, DutyCycleShowsUpInTheMean) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 20);
  // Saturate the link for exactly half the window.
  FlowId flow{};
  sched.schedule_at(0.5, [&] { flow = network->add_flow({ab}); });
  sched.schedule_at(10.5, [&] { network->remove_flow(flow); });
  sched.run_until(20.5);
  EXPECT_NEAR(monitor.mean_utilization(ab), 0.5, 0.1);
  EXPECT_NEAR(monitor.starved_fraction(ab), 0.5, 0.1);
}

TEST_F(LinkMonitorTest, WindowForgetsOldSamples) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 10);
  FlowId flow{};
  sched.schedule_at(0.5, [&] { flow = network->add_flow({ab}); });
  sched.schedule_at(5.5, [&] { network->remove_flow(flow); });
  // 30 s later the 10-sample window holds only idle samples.
  sched.run_until(35.0);
  EXPECT_DOUBLE_EQ(monitor.mean_utilization(ab), 0.0);
}

TEST_F(LinkMonitorTest, CongestedNeedsBothConditions) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 10);
  // Demand-capped at capacity: high utilisation but nobody starved.
  network->add_flow({ab}, mbps(10));
  sched.run_until(15.0);
  EXPECT_GT(monitor.mean_utilization(ab), 0.9);
  EXPECT_DOUBLE_EQ(monitor.starved_fraction(ab), 0.0);
  EXPECT_FALSE(monitor.congested(ab, 0.85));
  // Add an elastic flow: now flows are starved too.
  network->add_flow({ab});
  sched.run_until(40.0);
  EXPECT_TRUE(monitor.congested(ab, 0.85));
}

TEST_F(LinkMonitorTest, MeanFlowsTracksConcurrency) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 10);
  network->add_flow({ab});
  network->add_flow({ab});
  sched.run_until(15.0);
  EXPECT_NEAR(monitor.mean_flows(ab), 2.0, 0.01);
}

TEST_F(LinkMonitorTest, CapacityFlapReadsAsFullUtilization) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 10);
  network->add_flow({ab}, mbps(5));  // 50% of nominal
  sched.run_until(12.0);
  EXPECT_NEAR(monitor.mean_utilization(ab), 0.5, 0.05);
  // Brown the link out under the demand: utilisation pegs at 1 (and a
  // zero-capacity flap must not divide by zero).
  sched.schedule_at(12.5, [&] { network->set_link_capacity(ab, 0.0); });
  sched.run_until(25.0);
  EXPECT_DOUBLE_EQ(monitor.mean_utilization(ab), 1.0);
  EXPECT_FALSE(std::isnan(monitor.mean_utilization(ab)));
  // Restore: the window recovers to the true 50% once the flap ages out.
  sched.schedule_at(25.5, [&] { network->set_link_capacity(ab, mbps(10)); });
  sched.run_until(40.0);
  EXPECT_NEAR(monitor.mean_utilization(ab), 0.5, 0.05);
}

TEST_F(LinkMonitorTest, DownUpCycleWithClearDropsStaleSamples) {
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 20);
  network->add_flow({ab});  // elastic: saturates the link
  sched.run_until(10.0);
  EXPECT_GT(monitor.mean_utilization(ab), 0.9);
  EXPECT_GT(monitor.window_fill(ab), 5u);
  // Outage. Down samples read utilisation 1 (unusable), so the ring keeps a
  // high mean -- which is stale the instant the link is back up. clear() on
  // each transition (what InfP::on_fault does) drops the straddle.
  sched.schedule_at(10.5, [&] {
    network->set_link_up(ab, false);
    monitor.clear(ab);
  });
  sched.run_until(12.0);
  sched.schedule_at(12.5, [&] {
    network->set_link_up(ab, true);
    network->remove_flow(FlowId(0));  // the viewer left during the outage
    monitor.clear(ab);
  });
  sched.run_until(12.9);  // before the t=13 sample refills the ring
  EXPECT_EQ(monitor.window_fill(ab), 0u);
  // Post-outage the link is idle; without clear() the ring would still be
  // reporting ~1.0 from the pre-outage and down-time samples.
  sched.run_until(17.0);
  EXPECT_DOUBLE_EQ(monitor.mean_utilization(ab), 0.0);
  EXPECT_FALSE(monitor.congested(ab, 0.8));
}

TEST_F(LinkMonitorTest, WithoutClearTheRingStraddlesTheOutage) {
  // Negative control for the clear() contract: the ring alone does NOT
  // forget the outage until the window ages it out.
  LinkMonitor monitor(sched, *network, {ab}, 1.0, 20);
  network->add_flow({ab});
  sched.run_until(10.0);
  sched.schedule_at(10.5, [&] {
    network->set_link_up(ab, false);
    network->remove_flow(FlowId(0));
  });
  sched.schedule_at(12.5, [&] { network->set_link_up(ab, true); });
  sched.run_until(14.0);
  // Stale: the idle, healthy link still reads as hot.
  EXPECT_GT(monitor.mean_utilization(ab), 0.5);
}

TEST_F(LinkMonitorTest, ClearUntrackedLinkIsNoop) {
  LinkMonitor monitor(sched, *network, {}, 1.0, 10);
  EXPECT_NO_THROW(monitor.clear(ab));
  EXPECT_FALSE(monitor.tracks(ab));
}

TEST_F(LinkMonitorTest, TrackAddsLinksLazily) {
  LinkMonitor monitor(sched, *network, {}, 1.0, 10);
  EXPECT_FALSE(monitor.tracks(ab));
  EXPECT_THROW((void)monitor.mean_utilization(ab), NotFoundError);
  monitor.track(ab);
  network->add_flow({ab});
  sched.run_until(5.0);
  EXPECT_GT(monitor.mean_utilization(ab), 0.9);
}

}  // namespace
}  // namespace eona::control
