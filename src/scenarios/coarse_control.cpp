#include "scenarios/coarse_control.hpp"

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/world.hpp"

namespace eona::scenarios {

CoarseControlResult run_coarse_control(const CoarseControlConfig& config,
                                       const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);

  // --- topology ---------------------------------------------------------------
  b.add_isp_bottleneck(gbps(1));
  net::Topology& topo = b.topology();
  NodeId client = b.client();
  NodeId edge = b.edge();
  NodeId srv1a = topo.add_node(net::NodeKind::kCdnServer, "cdn1-srvA");
  NodeId srv1b = topo.add_node(net::NodeKind::kCdnServer, "cdn1-srvB");
  NodeId srv2 = topo.add_node(net::NodeKind::kCdnServer, "cdn2-srv");
  NodeId origin1 = topo.add_node(net::NodeKind::kOrigin, "cdn1-origin");
  NodeId origin2 = topo.add_node(net::NodeKind::kOrigin, "cdn2-origin");

  LinkId egress_1a =
      topo.add_link(srv1a, edge, config.server_capacity, milliseconds(8));
  LinkId egress_1b =
      topo.add_link(srv1b, edge, config.server_capacity, milliseconds(8));
  LinkId egress_2 =
      topo.add_link(srv2, edge, config.server_capacity, milliseconds(10));
  topo.add_link(origin1, srv1a, config.origin_capacity, milliseconds(30));
  topo.add_link(origin1, srv1b, config.origin_capacity, milliseconds(30));
  topo.add_link(origin2, srv2, config.origin_capacity, milliseconds(30));

  IspId isp(0);
  b.build_network(isp);
  net::Network& network = b.world().network();

  // --- CDNs: 1 has two servers (A about to degrade, B healthy + warm);
  //           2 is the rival with cold caches. --------------------------------
  b.with_catalog(config.catalog_size, config.video_duration, 0.8);
  app::ContentCatalog& catalog = b.world().catalog();
  app::Cdn& cdn1 = b.add_cdn_at("cdn-1", origin1);
  app::Cdn& cdn2 = b.add_cdn_at("cdn-2", origin2);
  ServerId s1a = cdn1.add_server(srv1a, egress_1a, config.catalog_size);
  ServerId s1b = cdn1.add_server(srv1b, egress_1b, config.catalog_size);
  cdn2.add_server(srv2, egress_2, config.catalog_size);
  cdn1.warm_cache(s1a, catalog.ids());
  cdn1.warm_cache(s1b, catalog.ids());  // cdn2 deliberately cold

  // --- control planes ----------------------------------------------------------
  control::AppPConfig appp_cfg;
  appp_cfg.control_period = 5.0;
  appp_cfg.qoe_window = 30.0;
  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp", appp_cfg);

  control::InfPConfig infp_cfg;
  infp_cfg.control_period = 10.0;
  control::InfPController& infp =
      b.add_infp("cdn-operator", isp, {}, infp_cfg);
  infp.attach_cdn(&cdn1);  // the CDN operator publishes server hints
  infp.attach_cdn(&cdn2);

  b.wire_tenant();
  // Oracle mode models the hypothetical global controller: the player brain
  // introspects the network directly AND both control planes run fully
  // informed (baseline logic would pollute the upper bound).
  appp.set_eona_enabled(config.mode != ControlMode::kBaseline);
  infp.set_eona_enabled(config.mode != ControlMode::kBaseline);
  appp.start();
  infp.start();

  control::OracleBrain& oracle = b.add_oracle();
  app::PlayerBrain& brain = (config.mode == ControlMode::kOracle)
                                ? static_cast<app::PlayerBrain&>(oracle)
                                : appp.brain();

  // --- the incident ---------------------------------------------------------------
  b.sched().schedule_at(config.incident_at, [&network, &config, egress_1a] {
    network.set_link_capacity(egress_1a,
                              config.server_capacity * config.degraded_factor);
  });

  // --- traffic accounting sink ------------------------------------------------------
  double bits_cdn1_post = 0.0, bits_total_post = 0.0;
  appp.collector().add_sink([&](const telemetry::SessionRecord& r) {
    if (r.timestamp < config.incident_at) return;
    bits_total_post += r.metrics.bytes_delivered;
    if (r.dims.cdn == cdn1.id()) bits_cdn1_post += r.metrics.bytes_delivered;
  });

  // --- workload ------------------------------------------------------------------
  app::SessionPool& pool = b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  world->add_video_sessions(pool, brain, appp.collector(), {},
                            {{0.0, config.arrival_rate}},
                            config.run_duration - config.video_duration,
                            {client});

  CoarseControlResult result;
  sim::PeriodicTask sampler(sched, 2.0, [&] {
    std::size_t active = 0, stalled = 0;
    pool.for_each([&](app::VideoPlayer& p) {
      ++active;
      if (p.stalled()) ++stalled;
    });
    result.metrics.series("stalled_fraction")
        .record(sched.now(),
                active == 0 ? 0.0 : static_cast<double>(stalled) / active);
  });

  // --- run ----------------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

  // --- summarise -------------------------------------------------------------------
  result.qoe = QoeSummary::from(pool.summaries());
  result.post_incident = QoeSummary::from(
      pool.summaries(), [&](const app::SessionSummary& s) {
        return s.record.timestamp > config.incident_at;
      });
  result.cdn1_traffic_share =
      bits_total_post <= 0.0 ? 0.0 : bits_cdn1_post / bits_total_post;
  result.cdn2_hit_ratio = cdn2.hit_ratio();
  result.cdn_switches = result.qoe.cdn_switches;
  result.server_switches = result.qoe.server_switches;
  return result;
}

}  // namespace eona::scenarios
