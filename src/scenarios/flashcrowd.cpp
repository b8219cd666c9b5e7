#include "scenarios/flashcrowd.hpp"

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/world.hpp"
#include "telemetry/column_store.hpp"

namespace eona::scenarios {

FlashCrowdResult run_flash_crowd(const FlashCrowdConfig& config,
                                 const RunContext& ctx) {
  // Forecast-driven provisioning trends the store's link_rate rows; when
  // the caller did not pass a store, feed the InfP an internal one.
  // Declared before the builder so it outlives the world's recorder.
  telemetry::ColumnStore internal_store;
  telemetry::ColumnStore* store = ctx.store;
  if (store == nullptr && config.provision.enabled &&
      config.provision.forecast_driven)
    store = &internal_store;

  sim::World::Builder b(config.seed);
  b.attach_trace(ctx.trace).attach_store(store);

  // --- topology: two CDNs behind one access-ISP bottleneck -----------------
  b.add_isp_bottleneck(config.access_capacity);
  net::Topology& topo = b.topology();
  NodeId client = b.client();
  NodeId srv1 = topo.add_node(net::NodeKind::kCdnServer, "cdn1-srv");
  NodeId srv2 = topo.add_node(net::NodeKind::kCdnServer, "cdn2-srv");
  NodeId origin1 = topo.add_node(net::NodeKind::kOrigin, "cdn1-origin");
  NodeId origin2 = topo.add_node(net::NodeKind::kOrigin, "cdn2-origin");

  LinkId access = b.access_link();
  LinkId peer1 = topo.add_link(srv1, b.edge(), gbps(1), milliseconds(8));
  LinkId peer2 = topo.add_link(srv2, b.edge(), gbps(1), milliseconds(8));
  topo.add_link(origin1, srv1, config.origin_capacity, milliseconds(20));
  topo.add_link(origin2, srv2, config.origin_capacity, milliseconds(20));

  IspId isp(0);
  b.build_network(isp);
  net::Network& network = b.world().network();
  net::PeeringBook& peering = b.world().peering();

  // --- delivery ecosystem ---------------------------------------------------
  b.with_catalog(20, config.video_duration, 0.8);
  app::ContentCatalog& catalog = b.world().catalog();
  app::Cdn& cdn1 = b.add_cdn_at("cdn-1", origin1);
  app::Cdn& cdn2 = b.add_cdn_at("cdn-2", origin2);
  ServerId s1 = cdn1.add_server(srv1, peer1, 32);
  cdn2.add_server(srv2, peer2, 32);
  peering.add(isp, cdn1.id(), peer1, "cdn1@edge");
  peering.add(isp, cdn2.id(), peer2, "cdn2@edge");
  cdn1.set_peering_book(&peering);
  cdn2.set_peering_book(&peering);
  // The AppP's primary CDN is warm; the rival is cold, so trial-and-error
  // switching into it pays the origin detour (the "disruption" of Fig 3).
  cdn1.warm_cache(s1, catalog.ids());

  // --- control planes ---------------------------------------------------------
  control::AppPConfig appp_cfg;
  appp_cfg.control_period = 5.0;
  appp_cfg.qoe_window = 30.0;
  appp_cfg.robust_fetch = config.robust_fetch;
  appp_cfg.i2a_retry = config.retry;
  appp_cfg.stale_widening = config.stale_widening;
  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp", appp_cfg);

  control::InfPConfig infp_cfg;
  infp_cfg.control_period = 10.0;
  infp_cfg.robust_fetch = config.robust_fetch;
  infp_cfg.a2i_retry = config.retry;
  infp_cfg.stale_widening = config.stale_widening;
  infp_cfg.provision = config.provision;
  infp_cfg.forecast = config.forecast;
  control::InfPController& infp =
      b.add_infp("access-isp", isp, {access}, infp_cfg);
  if (store != nullptr) infp.attach_store(store);

  // A fault profile with seed 0 gets a deterministic per-direction seed
  // derived from the run seed (salted, so it never consumes workload RNG).
  core::FaultProfile a2i_fault = config.a2i_fault;
  core::FaultProfile i2a_fault = config.i2a_fault;
  if (a2i_fault.seed == 0) a2i_fault.seed = b.rng().fork_salted(0xA21).seed();
  if (i2a_fault.seed == 0) i2a_fault.seed = b.rng().fork_salted(0x12A).seed();
  core::TenantLink link;
  link.a2i_delay = config.a2i_delay;
  link.i2a_delay = config.i2a_delay;
  link.a2i_policy = config.a2i_policy;
  link.i2a_policy = config.i2a_policy;
  link.a2i_fault = std::move(a2i_fault);
  link.i2a_fault = std::move(i2a_fault);
  b.wire_tenant(0, 0, link);
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

  // --- workload ----------------------------------------------------------------
  app::SessionPool& pool = b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  app::PlayerConfig player_cfg;
  // A low floor so the crowd can squeeze renditions hard before starving.
  player_cfg.ladder = {kbps(200), kbps(450), mbps(1), mbps(2.5), mbps(6)};
  const app::PoissonArrivals& arrivals = world->add_video_sessions(
      pool, brain, appp.collector(), player_cfg, {{0.0, config.arrival_rate}},
      config.run_duration - 60.0, {client});

  // --- the flash crowd: background surge on the access link ----------------
  // Arrives in ten batches over twenty seconds (crowds ramp, they don't
  // teleport), leaves at crowd_end.
  std::vector<FlowId> crowd_flows;
  BitsPerSecond per_flow = config.access_capacity *
                           config.crowd_background_fraction /
                           static_cast<double>(config.crowd_flows);
  for (std::size_t batch = 0; batch < 10; ++batch) {
    sched.schedule_at(config.crowd_start + 2.0 * static_cast<double>(batch),
                      [&, batch] {
                        // One rate recompute per arrival wave, not per flow.
                        net::Network::Batch burst(network);
                        std::size_t per_batch = config.crowd_flows / 10;
                        for (std::size_t i = 0; i < per_batch; ++i)
                          crowd_flows.push_back(
                              network.add_flow({access}, per_flow));
                      });
  }
  sched.schedule_at(config.crowd_end, [&] {
    net::Network::Batch departure(network);
    for (FlowId f : crowd_flows) network.remove_flow(f);
    crowd_flows.clear();
  });

  // --- sampling ------------------------------------------------------------------
  FlashCrowdResult result;
  sim::PeriodicTask sampler(sched, 2.0, [&] {
    TimePoint now = sched.now();
    std::size_t active = 0, stalled = 0;
    double bitrate = 0.0;
    pool.for_each([&](app::VideoPlayer& p) {
      ++active;
      if (p.stalled()) ++stalled;
      bitrate += player_cfg.ladder[p.bitrate_index()];
    });
    double stalled_fraction =
        active == 0 ? 0.0 : static_cast<double>(stalled) / active;
    result.metrics.series("stalled_fraction").record(now, stalled_fraction);
    result.metrics.series("active_sessions")
        .record(now, static_cast<double>(active));
    result.metrics.series("mean_bitrate")
        .record(now, active == 0 ? 0.0 : bitrate / active);
    result.metrics.series("access_util")
        .record(now, network.link_utilization(access));
  });

  // --- run -------------------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

  // --- summarise ----------------------------------------------------------------------
  result.arrivals = arrivals.arrivals();
  result.qoe = QoeSummary::from(pool.summaries());
  result.crowd_qoe = QoeSummary::from(
      pool.summaries(), [&](const app::SessionSummary& s) {
        return s.record.timestamp >= config.crowd_start &&
               s.record.timestamp <= config.crowd_end + 60.0;
      });
  const auto& stalled_series = result.metrics.series("stalled_fraction");
  result.peak_stalled_fraction =
      stalled_series.empty() ? 0.0 : stalled_series.max();
  // Time over the QoE bar: each sample holds until the next one (the final
  // sample for one sampler period).
  {
    const auto& samples = stalled_series.samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (samples[i].value <= config.qoe_stall_threshold) continue;
      result.time_over_qoe_threshold +=
          i + 1 < samples.size() ? samples[i + 1].t - samples[i].t : 2.0;
    }
  }
  result.provision_orders = infp.provision_orders();
  result.final_access_capacity = network.link_capacity(access);
  const auto& util_series = result.metrics.series("access_util");
  if (!util_series.empty() && config.crowd_end > config.crowd_start)
    result.mean_access_utilization = util_series.time_weighted_mean(
        config.crowd_start, config.crowd_end);
  result.i2a_health = appp.i2a_health();
  result.a2i_health = infp.a2i_health();
  return result;
}

}  // namespace eona::scenarios
