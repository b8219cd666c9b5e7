// Tests for the InfP control plane: I2A report construction, baseline
// flee/return traffic engineering, EONA forecast-driven placement, and live
// flow migration.
#include "control/infp.hpp"

#include <gtest/gtest.h>

#include "net/transfer.hpp"

namespace eona::control {
namespace {

/// Fig 5-shaped world: one ISP, CDN X with peering points B (small,
/// preferred) and C (large), plus an access link.
class InfPTest : public ::testing::Test {
 protected:
  InfPTest() {
    client = topo.add_node(net::NodeKind::kClientPop, "client");
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    srv = topo.add_node(net::NodeKind::kCdnServer, "srv");
    access = topo.add_link(edge, client, mbps(100), milliseconds(2));
    link_b = topo.add_link(srv, edge, mbps(10), milliseconds(2), "B");
    link_c = topo.add_link(srv, edge, mbps(100), milliseconds(10), "C");
    network.emplace(topo);
    routing.emplace(topo);
    peering.emplace(topo);
    peer_b = peering->add(isp, cdn, link_b, "B");
    peer_c = peering->add(isp, cdn, link_c, "C");
  }

  InfPController make(InfPConfig config = {}) {
    config.sample_period = 0.5;
    config.window_samples = 10;
    return InfPController(sched, *network, *routing, *peering, isp,
                          ProviderId(1), {access}, config);
  }

  /// Let the monitor accumulate samples.
  void settle(Duration how_long = 10.0) { sched.run_until(sched.now() + how_long); }

  /// Publish a synthetic A2I report into a controller's subscription
  /// (through a single-pair exchange standing in for the broker).
  void push_a2i(InfPController& infp, BitsPerSecond forecast) {
    if (!exchange) {
      exchange.emplace(registry);
      exchange->register_appp(ProviderId(0));
      exchange->register_infp(ProviderId(1));
      infp.bind_exchange(core::ExchangeEndpoint(&*exchange, ProviderId(1)));
      exchange->wire(ProviderId(0), ProviderId(1));
      infp.subscribe_a2i(ProviderId(0));
    }
    core::A2IReport report;
    report.from = ProviderId(0);
    report.generated_at = sched.now();
    core::TrafficForecast f;
    f.isp = isp;
    f.cdn = cdn;
    f.expected_rate = forecast;
    report.forecasts.push_back(f);
    exchange->publish_a2i(ProviderId(0), report, sched.now());
  }

  net::Topology topo;
  NodeId client, edge, srv;
  LinkId access, link_b, link_c;
  IspId isp{0};
  CdnId cdn{0};
  PeeringId peer_b, peer_c;
  sim::Scheduler sched;
  std::optional<net::Network> network;
  std::optional<net::Routing> routing;
  std::optional<net::PeeringBook> peering;
  core::ProviderRegistry registry;
  std::optional<core::Exchange> exchange;
};

TEST_F(InfPTest, ReportsPeeringStatusWithSelection) {
  InfPController infp = make();
  settle();
  core::I2AReport report = infp.build_i2a_report();
  ASSERT_EQ(report.peerings.size(), 2u);
  EXPECT_EQ(report.peerings[0].peering, peer_b);
  EXPECT_TRUE(report.peerings[0].selected);
  EXPECT_FALSE(report.peerings[1].selected);
  EXPECT_DOUBLE_EQ(report.peerings[0].capacity, mbps(10));
  EXPECT_TRUE(report.congestion.empty());
}

TEST_F(InfPTest, CongestedPeeringRaisesSignal) {
  InfPController infp = make();
  // Saturate B with elastic flows.
  network->add_flow({link_b, access});
  network->add_flow({link_b, access});
  settle();
  core::I2AReport report = infp.build_i2a_report();
  EXPECT_TRUE(report.peerings[0].congested);
  ASSERT_FALSE(report.congestion.empty());
  EXPECT_EQ(report.congestion[0].scope, core::CongestionScope::kPeering);
  EXPECT_GT(report.congestion[0].severity, 0.5);
}

TEST_F(InfPTest, AccessCongestionIsAttributed) {
  InfPController infp = make();
  for (int i = 0; i < 4; ++i) network->add_flow({access});
  settle();
  core::I2AReport report = infp.build_i2a_report();
  bool found_access = false;
  for (const auto& c : report.congestion)
    if (c.scope == core::CongestionScope::kAccess) found_access = true;
  EXPECT_TRUE(found_access);
}

TEST_F(InfPTest, ServerHintsComeFromOperatedCdns) {
  InfPController infp = make();
  app::Cdn operated(cdn, "x", NodeId{});
  ServerId sid = operated.add_server(srv, link_b, 4);
  operated.set_online(sid, false);
  infp.attach_cdn(&operated);
  settle();
  core::I2AReport report = infp.build_i2a_report();
  ASSERT_EQ(report.server_hints.size(), 1u);
  EXPECT_EQ(report.server_hints[0].server, sid);
  EXPECT_FALSE(report.server_hints[0].online);
}

TEST_F(InfPTest, BaselineFleesHotPeering) {
  InfPController infp = make();
  network->add_flow({link_b, access});  // elastic: saturates B
  network->add_flow({link_b, access});
  settle(12.0);
  infp.tick();
  EXPECT_EQ(peering->selected(isp, cdn), peer_c);
  EXPECT_EQ(infp.egress_trace(cdn).change_count(), 1u);
  EXPECT_EQ(infp.reroutes(), 2u);
  // The flows were physically moved.
  EXPECT_EQ(network->link_flow_count(link_b), 0);
  EXPECT_EQ(network->link_flow_count(link_c), 2);
}

TEST_F(InfPTest, BaselineDriftsHomeWhenPreferredIsIdle) {
  InfPController infp = make();
  infp.select_egress(peer_c);
  settle(12.0);  // B reads idle
  infp.tick();
  EXPECT_EQ(peering->selected(isp, cdn), peer_b);
}

TEST_F(InfPTest, EonaPlacesForecastThatDoesNotFitB) {
  InfPConfig config;
  InfPController infp = make(config);
  infp.set_eona_enabled(true);
  push_a2i(infp, mbps(50));  // doesn't fit B (10), fits C (100)
  settle(2.0);
  infp.tick();
  EXPECT_EQ(peering->selected(isp, cdn), peer_c);
}

TEST_F(InfPTest, EonaPrefersCheapBWhenForecastFits) {
  InfPController infp = make();
  infp.set_eona_enabled(true);
  infp.select_egress(peer_c);
  push_a2i(infp, mbps(5));  // fits B comfortably (headroom 1.15)
  settle(2.0);
  infp.tick();
  EXPECT_EQ(peering->selected(isp, cdn), peer_b);
}

TEST_F(InfPTest, EonaHoldsWithoutForecasts) {
  InfPController infp = make();
  infp.set_eona_enabled(true);
  network->add_flow({link_b, access});
  network->add_flow({link_b, access});
  settle(12.0);
  infp.tick();  // no A2I data: hold position even though B is hot
  EXPECT_EQ(peering->selected(isp, cdn), peer_b);
}

TEST_F(InfPTest, EgressDwellDampensFlapping) {
  InfPConfig config;
  config.egress_dwell = 1000.0;
  InfPController infp = make(config);
  infp.set_eona_enabled(true);
  push_a2i(infp, mbps(50));
  settle(2.0);
  infp.tick();
  EXPECT_EQ(peering->selected(isp, cdn), peer_c);  // first change is free
  push_a2i(infp, mbps(5));
  settle(2.0);
  infp.tick();  // wants B, but dwell blocks
  EXPECT_EQ(peering->selected(isp, cdn), peer_c);
}

TEST_F(InfPTest, MigrationPreservesFlowEndpoints) {
  InfPController infp = make();
  FlowId f = network->add_flow({link_b, access});
  infp.select_egress(peer_c);
  EXPECT_EQ(network->flow_src(f), srv);
  EXPECT_EQ(network->flow_dst(f), client);
  const net::Path& path = network->path(f);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], link_c);
}

TEST_F(InfPTest, PeriodicTicksRun) {
  InfPConfig config;
  config.control_period = 5.0;
  InfPController infp = make(config);
  infp.start();
  sched.run_until(16.0);
  EXPECT_EQ(infp.ticks(), 3u);
  infp.stop();
  sched.run_until(30.0);
  EXPECT_EQ(infp.ticks(), 3u);
}

TEST_F(InfPTest, UnknownTraceThrows) {
  InfPController infp = make();
  EXPECT_THROW((void)infp.egress_trace(CdnId(9)), NotFoundError);
}

}  // namespace
}  // namespace eona::control
