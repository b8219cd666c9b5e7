// Tests for the AppP control plane: A2I report construction, I2A
// consumption, the two player brains, and primary-CDN steering.
#include "control/appp.hpp"

#include <gtest/gtest.h>

#include "net/transfer.hpp"

namespace eona::control {
namespace {

class AppPTest : public ::testing::Test {
 protected:
  AppPTest() : cdn1(CdnId(0), "cdn1", NodeId{}), cdn2(CdnId(1), "cdn2", NodeId{}) {
    client = topo.add_node(net::NodeKind::kClientPop, "client");
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    s1 = topo.add_node(net::NodeKind::kCdnServer, "s1");
    s2 = topo.add_node(net::NodeKind::kCdnServer, "s2");
    origin = topo.add_node(net::NodeKind::kOrigin, "origin");
    topo.add_link(edge, client, mbps(100), milliseconds(1));
    e1 = topo.add_link(s1, edge, mbps(50), milliseconds(1));
    e2 = topo.add_link(s2, edge, mbps(50), milliseconds(1));
    topo.add_link(origin, s1, mbps(20), milliseconds(5));
    topo.add_link(origin, s2, mbps(20), milliseconds(5));
    network.emplace(topo);

    cdn1 = app::Cdn(CdnId(0), "cdn1", origin);
    cdn2 = app::Cdn(CdnId(1), "cdn2", origin);
    srv1a = cdn1.add_server(s1, e1, 8);
    srv1b = cdn1.add_server(s2, e2, 8);
    cdn2.add_server(s2, e2, 8);
    directory.add(&cdn1);
    directory.add(&cdn2);

    AppPConfig config;
    config.qoe_window = 60.0;
    config.bad_qoe_buffering = 0.10;
    appp.emplace(sched, *network, directory, ProviderId(0), config);
  }

  /// Feed one beacon into the controller's pipeline.
  void beacon(CdnId cdn, double buffering, double bitrate, Bits bits,
              TimePoint t, ServerId server = ServerId{}) {
    telemetry::SessionRecord r;
    r.session = SessionId(next_session_++);
    r.dims.isp = IspId(0);
    r.dims.cdn = cdn;
    r.dims.server = server;
    r.metrics.buffering_ratio = buffering;
    r.metrics.avg_bitrate = bitrate;
    r.metrics.engagement = 0.5;
    r.metrics.bytes_delivered = bits;
    r.timestamp = t;
    appp->collector().report(r);
  }

  /// A PlayerView for brain probing.
  app::PlayerView view(CdnId cdn, ServerId server,
                       std::uint64_t stalls_since_switch = 0) {
    app::PlayerView v;
    v.session = SessionId(7);
    v.now = sched.now();
    v.buffer = 15.0;
    v.throughput_estimate = mbps(4);
    v.bitrate_index = 2;
    v.cdn = cdn;
    v.server = server;
    v.stalls_since_switch = stalls_since_switch;
    v.stall_count = stalls_since_switch;
    v.joined = true;
    v.chunks_fetched = 10;
    v.chunks_total = 30;
    v.isp = IspId(0);
    v.client_node = client;
    v.ladder = &ladder;
    v.max_buffer = 24.0;
    return v;
  }

  /// Publish a synthetic I2A report into the AppP's subscription (through a
  /// single-pair exchange standing in for the broker).
  void push_i2a(const core::I2AReport& report) {
    if (!exchange) {
      exchange.emplace(registry);
      exchange->register_appp(ProviderId(0));
      exchange->register_infp(ProviderId(1));
      appp->bind_exchange(core::ExchangeEndpoint(&*exchange, ProviderId(0)));
      exchange->wire(ProviderId(0), ProviderId(1));
      appp->subscribe_i2a(ProviderId(1));
    }
    exchange->publish_i2a(ProviderId(1), report, sched.now());
    appp->tick();
  }

  net::Topology topo;
  NodeId client, edge, s1, s2, origin;
  LinkId e1, e2;
  std::optional<net::Network> network;
  app::Cdn cdn1, cdn2;
  ServerId srv1a, srv1b;
  app::CdnDirectory directory;
  sim::Scheduler sched;
  core::ProviderRegistry registry;
  std::optional<core::Exchange> exchange;
  std::optional<AppPController> appp;
  std::vector<BitsPerSecond> ladder{kbps(300), mbps(1), mbps(3), mbps(6)};
  std::uint64_t next_session_ = 0;
};

TEST_F(AppPTest, A2IReportAggregatesByIspCdn) {
  beacon(CdnId(0), 0.10, mbps(2), 1e6, 0.0);
  beacon(CdnId(0), 0.20, mbps(4), 1e6, 1.0);
  beacon(CdnId(1), 0.00, mbps(6), 2e6, 2.0);
  core::A2IReport report = appp->build_a2i_report();

  // CDN-level groups (server wildcard): one per CDN.
  int cdn_level = 0;
  for (const auto& g : report.groups) {
    if (g.server.valid()) continue;
    ++cdn_level;
    if (g.cdn == CdnId(0)) {
      EXPECT_EQ(g.sessions, 2u);
      EXPECT_NEAR(g.mean_buffering_ratio, 0.15, 1e-9);
      EXPECT_NEAR(g.mean_bitrate, mbps(3), 1.0);
      EXPECT_GE(g.p90_buffering_ratio, g.mean_buffering_ratio);
    }
  }
  EXPECT_EQ(cdn_level, 2);
  ASSERT_EQ(report.forecasts.size(), 2u);
  // Forecast = window volume / window length.
  for (const auto& f : report.forecasts) {
    if (f.cdn == CdnId(0)) {
      EXPECT_NEAR(f.expected_rate, 2e6 / 60.0, 1.0);
    }
  }
}

TEST_F(AppPTest, IntendedBitrateLiftsForecasts) {
  AppPConfig config;
  config.qoe_window = 60.0;
  config.intended_bitrate = mbps(3);
  AppPController intender(sched, *network, directory, ProviderId(5), config);
  for (int i = 0; i < 12; ++i) {  // ~2 active sessions' worth of beacons
    telemetry::SessionRecord r;
    r.session = SessionId(static_cast<std::uint64_t>(100 + i));
    r.dims.isp = IspId(0);
    r.dims.cdn = CdnId(0);
    r.metrics.bytes_delivered = 1e5;  // tiny measured volume
    r.timestamp = 0.0;
    intender.collector().report(r);
  }
  core::A2IReport report = intender.build_a2i_report();
  ASSERT_EQ(report.forecasts.size(), 1u);
  // 12 records * 10 s / 60 s = 2 active sessions * 3 Mbps intended.
  EXPECT_NEAR(report.forecasts[0].expected_rate, mbps(6), 1e3);
}

TEST_F(AppPTest, BaselineBrainRoundRobinsOnTrouble) {
  app::PlayerBrain& brain = appp->baseline_brain();
  EXPECT_FALSE(brain.should_switch_endpoint(view(CdnId(0), srv1a, 0)));
  EXPECT_TRUE(brain.should_switch_endpoint(view(CdnId(0), srv1a, 1)));
  app::Endpoint next = brain.choose_endpoint(view(CdnId(0), srv1a, 1));
  EXPECT_EQ(next.cdn, CdnId(1));  // round robin to the other CDN
}

TEST_F(AppPTest, BaselineBrainSwitchesOnPoorThroughput) {
  app::PlayerBrain& brain = appp->baseline_brain();
  app::PlayerView v = view(CdnId(0), srv1a, 0);
  v.throughput_estimate = kbps(500);  // below ladder rung 1 (1 Mbps)
  EXPECT_TRUE(brain.should_switch_endpoint(v));
}

TEST_F(AppPTest, EonaBrainHoldsUnderAccessCongestion) {
  core::I2AReport i2a;
  i2a.from = ProviderId(1);
  core::CongestionSignal c;
  c.isp = IspId(0);
  c.scope = core::CongestionScope::kAccess;
  c.severity = 1.0;
  i2a.congestion.push_back(c);
  push_i2a(i2a);

  app::PlayerBrain& brain = appp->eona_brain();
  // Even with stalls: switching cannot help, so hold.
  EXPECT_FALSE(brain.should_switch_endpoint(view(CdnId(0), srv1a, 3)));
  // And the bitrate choice is capped below the throughput-safe rung: with
  // 10 Mbps estimated, uncapped rate-based picks the 6 Mbps top rung, but
  // severity 1.0 caps the budget at 10 * (1 - 0.5) = 5 Mbps -> 3 Mbps rung.
  app::PlayerView v = view(CdnId(0), srv1a, 0);
  v.throughput_estimate = mbps(10);
  v.bitrate_index = 3;  // smoothing must not mask the congestion jump-down
  std::size_t capped = brain.choose_bitrate(v);
  std::size_t uncapped = appp->baseline_brain().choose_bitrate(v);
  EXPECT_EQ(uncapped, 3u);
  EXPECT_EQ(capped, 2u);
}

TEST_F(AppPTest, EonaBrainPrefersIntraCdnServerSwitch) {
  core::I2AReport i2a;
  i2a.from = ProviderId(1);
  core::ServerHint bad;
  bad.cdn = CdnId(0);
  bad.server = srv1a;
  bad.load = 0.99;
  core::ServerHint good;
  good.cdn = CdnId(0);
  good.server = srv1b;
  good.load = 0.10;
  i2a.server_hints = {bad, good};
  push_i2a(i2a);

  app::PlayerBrain& brain = appp->eona_brain();
  EXPECT_TRUE(brain.should_switch_endpoint(view(CdnId(0), srv1a, 0)));
  app::Endpoint next = brain.choose_endpoint(view(CdnId(0), srv1a, 1));
  EXPECT_EQ(next.cdn, CdnId(0)) << "cache locality: stay inside the CDN";
  EXPECT_EQ(next.server, srv1b);
}

TEST_F(AppPTest, EonaBrainFleesOfflineServer) {
  core::I2AReport i2a;
  i2a.from = ProviderId(1);
  core::ServerHint down;
  down.cdn = CdnId(0);
  down.server = srv1a;
  down.online = false;
  core::ServerHint up;
  up.cdn = CdnId(0);
  up.server = srv1b;
  up.load = 0.2;
  i2a.server_hints = {down, up};
  push_i2a(i2a);
  EXPECT_TRUE(
      appp->eona_brain().should_switch_endpoint(view(CdnId(0), srv1a, 0)));
}

TEST_F(AppPTest, SteeringSwitchesPrimaryOnBadQoeBaseline) {
  EXPECT_EQ(appp->primary_cdn(), CdnId(0));
  for (int i = 0; i < 10; ++i)
    beacon(CdnId(0), /*buffering=*/0.30, mbps(2), 1e6, 0.0);
  appp->tick();
  EXPECT_EQ(appp->primary_cdn(), CdnId(1));
  EXPECT_EQ(appp->primary_trace().change_count(), 1u);
}

TEST_F(AppPTest, SteeringHoldsWhenGoodQoe) {
  for (int i = 0; i < 10; ++i) beacon(CdnId(0), 0.00, mbps(4), 1e6, 0.0);
  appp->tick();
  EXPECT_EQ(appp->primary_cdn(), CdnId(0));
}

TEST_F(AppPTest, EonaSteeringHoldsWhenIspHasPeeringHeadroom) {
  appp->set_eona_enabled(true);
  // Bad QoE on the primary...
  for (int i = 0; i < 10; ++i) beacon(CdnId(0), 0.30, mbps(1), 1e6, 0.0);
  // ...but the I2A shows an unselected peering point with ample capacity.
  core::I2AReport i2a;
  i2a.from = ProviderId(1);
  core::PeeringStatus alt;
  alt.peering = PeeringId(1);
  alt.isp = IspId(0);
  alt.cdn = CdnId(0);
  alt.capacity = gbps(1);
  alt.utilization = 0.05;
  alt.selected = false;
  i2a.peerings.push_back(alt);
  push_i2a(i2a);
  EXPECT_EQ(appp->primary_cdn(), CdnId(0)) << "hold: the ISP can fix this";
}

TEST_F(AppPTest, EonaSteeringHoldsUnderAccessCongestion) {
  appp->set_eona_enabled(true);
  for (int i = 0; i < 10; ++i) beacon(CdnId(0), 0.30, mbps(1), 1e6, 0.0);
  core::I2AReport i2a;
  i2a.from = ProviderId(1);
  core::CongestionSignal c;
  c.isp = IspId(0);
  c.scope = core::CongestionScope::kAccess;
  c.severity = 1.0;
  i2a.congestion.push_back(c);
  push_i2a(i2a);
  EXPECT_EQ(appp->primary_cdn(), CdnId(0));
}

TEST_F(AppPTest, BrainSelectionFollowsEonaFlag) {
  EXPECT_EQ(&appp->brain(), &appp->baseline_brain());
  appp->set_eona_enabled(true);
  EXPECT_EQ(&appp->brain(), &appp->eona_brain());
}

}  // namespace
}  // namespace eona::control
