// Tests for server energy management: load-threshold scaling, the EONA QoE
// guardrail, cache loss on power-off, savings accounting, and A2I read as an
// ordinary exchange tenant (merged across AppPs, reattached after a broker
// crash).
#include "control/energy.hpp"

#include <gtest/gtest.h>

#include "eona/exchange.hpp"
#include "eona/registry.hpp"
#include "net/transfer.hpp"

namespace eona::control {
namespace {

class EnergyTest : public ::testing::Test {
 protected:
  EnergyTest() : cdn(CdnId(0), "cdn", NodeId{}) {
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    origin = topo.add_node(net::NodeKind::kOrigin, "origin");
    for (int i = 0; i < 3; ++i) {
      NodeId node =
          topo.add_node(net::NodeKind::kCdnServer, "s" + std::to_string(i));
      nodes.push_back(node);
      links.push_back(topo.add_link(node, edge, mbps(10), milliseconds(1)));
    }
    network.emplace(topo);
    cdn = app::Cdn(CdnId(0), "cdn", origin);
    for (int i = 0; i < 3; ++i) {
      servers.push_back(cdn.add_server(nodes[i], links[i], 4));
      cdn.warm_cache(servers.back(), {ContentId(0)});
    }
  }

  EnergyManager make(EnergyConfig config = {}) {
    return EnergyManager(sched, *network, cdn, ProviderId(2), config);
  }

  /// Enroll the manager (ProviderId 2) on a hand-built exchange, wired to
  /// and subscribed to each of AppPs 0..appps-1.
  void wire(EnergyManager& energy, std::uint32_t appps = 1) {
    exchange.emplace(registry);
    exchange->register_infp(ProviderId(2));
    energy.bind_exchange(core::ExchangeEndpoint(&*exchange, ProviderId(2)));
    for (std::uint32_t a = 0; a < appps; ++a) {
      exchange->register_appp(ProviderId(a));
      exchange->wire(ProviderId(a), ProviderId(2));
      energy.subscribe_a2i(ProviderId(a));
    }
  }

  /// A2I report of AppP `from` with one CDN-level group for CDN 0.
  core::A2IReport report(double buffering, double engagement,
                         std::uint64_t sessions, std::uint32_t from = 0) {
    core::A2IReport r;
    r.from = ProviderId(from);
    r.generated_at = sched.now();
    core::QoeGroupReport g;
    g.isp = IspId(0);
    g.cdn = CdnId(0);
    g.mean_buffering_ratio = buffering;
    g.mean_engagement = engagement;
    g.sessions = sessions;
    r.groups.push_back(g);
    return r;
  }

  /// Publish a synthetic A2I report from AppP 0 through the exchange.
  void push_a2i(EnergyManager& energy, double buffering, double engagement,
                std::uint64_t sessions = 100) {
    if (!exchange) wire(energy);
    exchange->publish_a2i(ProviderId(0),
                          report(buffering, engagement, sessions), sched.now());
  }

  [[nodiscard]] static std::optional<double> buffering(
      const EnergyManager& energy) {
    return energy.reported(&core::QoeGroupReport::mean_buffering_ratio);
  }

  net::Topology topo;
  NodeId edge, origin;
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;
  std::vector<ServerId> servers;
  sim::Scheduler sched;
  std::optional<net::Network> network;
  app::Cdn cdn;
  core::ProviderRegistry registry;
  std::optional<core::Exchange> exchange;
};

TEST_F(EnergyTest, BaselineShedsWhenIdle) {
  EnergyManager energy = make();
  EXPECT_EQ(cdn.online_count(), 3u);
  energy.tick();  // load 0 <= scale_down
  EXPECT_EQ(cdn.online_count(), 2u);
  EXPECT_EQ(energy.shutdowns(), 1u);
  energy.tick();
  energy.tick();
  // min_online=1 floors the shedding.
  EXPECT_EQ(cdn.online_count(), 1u);
  energy.tick();
  EXPECT_EQ(cdn.online_count(), 1u);
}

TEST_F(EnergyTest, ShutdownZeroesCapacityAndDropsCache) {
  EnergyManager energy = make();
  energy.tick();
  // Find the offline server.
  ServerId off;
  for (const auto& s : cdn.servers())
    if (!s.online) off = s.id;
  ASSERT_TRUE(off.valid());
  EXPECT_DOUBLE_EQ(network->link_capacity(cdn.server(off).egress), 0.0);
  EXPECT_EQ(cdn.server(off).cache.size(), 0u) << "power-off loses the cache";
}

TEST_F(EnergyTest, WakeRestoresCapacity) {
  EnergyManager energy = make();
  energy.tick();  // shed one
  // Saturate the two remaining servers so mean load > scale_up.
  for (const auto& s : cdn.servers())
    if (s.online) network->add_flow({s.egress});
  energy.tick();
  EXPECT_EQ(cdn.online_count(), 3u);
  EXPECT_EQ(energy.wakes(), 1u);
  for (const auto& s : cdn.servers())
    EXPECT_DOUBLE_EQ(network->link_capacity(s.egress), mbps(10));
}

TEST_F(EnergyTest, ShedsTheLeastLoadedServer) {
  EnergyManager energy = make();
  network->add_flow({links[0]});
  network->add_flow({links[1]});
  // Server 2 idle -> it is the victim. (Loads: 1, 1, 0 -> mean ~0.67, but
  // scale_down must permit: use a generous threshold.)
  EnergyConfig config;
  config.scale_down_load = 0.7;
  config.scale_up_load = 0.9;
  EnergyManager aggressive = make(config);
  aggressive.tick();
  EXPECT_FALSE(cdn.server(servers[2]).online);
}

TEST_F(EnergyTest, EonaGuardrailBlocksSheddingOnBadQoe) {
  EnergyManager energy = make();
  energy.set_eona_enabled(true);
  push_a2i(energy, /*buffering=*/0.10, /*engagement=*/0.95);
  energy.tick();
  // Bad buffering: wake (no-op at 3/3) and refuse to shed.
  EXPECT_EQ(cdn.online_count(), 3u);
  EXPECT_EQ(energy.shutdowns(), 0u);
}

TEST_F(EnergyTest, EonaGuardrailBlocksSheddingOnLowEngagement) {
  EnergyManager energy = make();
  energy.set_eona_enabled(true);
  push_a2i(energy, 0.0, /*engagement=*/0.70);
  energy.tick();
  EXPECT_EQ(energy.shutdowns(), 0u);
}

TEST_F(EnergyTest, EonaWakesOnQoeDegradation) {
  EnergyManager energy = make();
  energy.set_eona_enabled(true);
  push_a2i(energy, 0.0, 0.99);
  energy.tick();  // healthy: sheds one
  EXPECT_EQ(cdn.online_count(), 2u);
  sched.run_until(10.0);  // the next report is newer than the one held
  push_a2i(energy, 0.20, 0.50);
  energy.tick();  // QoE collapsed: wake immediately
  EXPECT_EQ(cdn.online_count(), 3u);
}

TEST_F(EnergyTest, EonaShedsWhenComfortable) {
  EnergyManager energy = make();
  energy.set_eona_enabled(true);
  push_a2i(energy, 0.001, 0.98);
  energy.tick();
  EXPECT_EQ(cdn.online_count(), 2u);
}

TEST_F(EnergyTest, SavingsAccounting) {
  EnergyManager energy = make();
  energy.tick();  // 2 online from t=0
  sched.run_until(100.0);
  // 3 servers, one off for ~100 s.
  EXPECT_NEAR(energy.server_seconds_saved(100.0), 100.0, 1.0);
  EXPECT_NEAR(energy.online_series().time_weighted_mean(0.0, 100.0), 2.0,
              0.05);
}

TEST_F(EnergyTest, MeanLoadCoversOnlyOnlineServers) {
  EnergyManager energy = make();
  network->add_flow({links[0]});  // saturates server 0
  EXPECT_NEAR(energy.mean_online_load(), 1.0 / 3.0, 1e-9);
  cdn.set_online(servers[1], false);
  cdn.set_online(servers[2], false);
  EXPECT_NEAR(energy.mean_online_load(), 1.0, 1e-9);
}

TEST_F(EnergyTest, ReportedMetricsComeFromMatchingCdnOnly) {
  EnergyManager energy = make();
  energy.set_eona_enabled(true);
  // Report for a different CDN: must be ignored.
  core::A2IReport report;
  report.from = ProviderId(0);
  core::QoeGroupReport g;
  g.cdn = CdnId(9);
  g.mean_buffering_ratio = 0.9;
  g.sessions = 10;
  report.groups.push_back(g);
  wire(energy);
  exchange->publish_a2i(ProviderId(0), report, 0.0);
  energy.tick();
  EXPECT_FALSE(buffering(energy).has_value());
  // With no QoE data the EONA controller still sheds on load.
  EXPECT_EQ(energy.shutdowns(), 1u);
}

TEST_F(EnergyTest, TwoAppPsMergeIntoOneSessionWeightedView) {
  EnergyManager energy = make();
  wire(energy, /*appps=*/2);
  exchange->publish_a2i(ProviderId(0), report(0.10, 0.80, 100, 0), 0.0);
  exchange->publish_a2i(ProviderId(1), report(0.02, 1.00, 300, 1), 0.0);
  energy.tick();
  // Both AppPs' sessions count, each by its weight: not the last answer.
  ASSERT_TRUE(buffering(energy).has_value());
  EXPECT_DOUBLE_EQ(*buffering(energy), (0.10 * 100 + 0.02 * 300) / 400);
  EXPECT_DOUBLE_EQ(*energy.reported(&core::QoeGroupReport::mean_engagement),
                   (0.80 * 100 + 1.00 * 300) / 400);
}

TEST_F(EnergyTest, ReattachesAfterABrokerCrashLikeAnyTenant) {
  EnergyManager energy = make();
  sim::EventBus bus;
  energy.set_event_bus(&bus);
  auto broker_fault = [&](const char* kind) {
    sim::FaultEvent e;
    e.t = sched.now();
    e.kind = kind;
    bus.publish(e);
  };
  wire(energy);
  exchange->publish_a2i(ProviderId(0), report(0.10, 0.90, 100), 0.0);
  energy.tick();
  EXPECT_DOUBLE_EQ(*buffering(energy), 0.10);

  // The broker dies: every leg, the energy manager's included, is torn
  // down, and the books hold no token for it.
  sched.run_until(5.0);
  exchange->crash();
  broker_fault("exchange_crash");
  EXPECT_EQ(exchange->invariant_violation(), "");
  exchange->restart();
  broker_fault("exchange_restart");
  EXPECT_EQ(exchange->invariant_violation(), "");
  EXPECT_FALSE(exchange->fetch_a2i(ProviderId(2), ProviderId(0), sched.now()))
      << "the energy leg survived the crash";

  // The AppP reattaches its legs; the manager reattaches on its own chain.
  ASSERT_NE(exchange->reattach(ProviderId(0)), 0u);
  sched.run_until(sched.now() + core::ReattachPolicy{}.horizon() + 1.0);
  EXPECT_EQ(energy.port().reattach_count(), 1u);
  EXPECT_EQ(exchange->invariant_violation(), "");

  // A report published after the reattach reaches the manager.
  exchange->publish_a2i(ProviderId(0), report(0.30, 0.50, 100), sched.now());
  energy.tick();
  EXPECT_DOUBLE_EQ(*buffering(energy), 0.30);
}

}  // namespace
}  // namespace eona::control
