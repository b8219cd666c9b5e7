#include "scenarios/energy.hpp"

#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/world.hpp"

namespace eona::scenarios {

EnergyScenarioResult run_energy(const EnergyScenarioConfig& config,
                                const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);

  // --- topology: one CDN, `servers` clusters --------------------------------
  b.add_isp_bottleneck(gbps(2));
  net::Topology& topo = b.topology();
  NodeId client = b.client();
  NodeId edge = b.edge();
  NodeId origin = topo.add_node(net::NodeKind::kOrigin, "origin");

  std::vector<NodeId> server_nodes;
  std::vector<LinkId> server_links;
  for (std::size_t i = 0; i < config.servers; ++i) {
    NodeId node = topo.add_node(net::NodeKind::kCdnServer,
                                "srv-" + std::to_string(i));
    server_nodes.push_back(node);
    server_links.push_back(
        topo.add_link(node, edge, config.server_capacity, milliseconds(8)));
    topo.add_link(origin, node, mbps(40), milliseconds(25));
  }

  b.build_network();

  b.with_catalog(60, config.video_duration, 0.8);
  app::Cdn& cdn = b.add_cdn_at("cdn", origin);
  for (std::size_t i = 0; i < config.servers; ++i) {
    ServerId sid = cdn.add_server(server_nodes[i], server_links[i], 20);
    // Warm each cache with the head of the popularity curve (cache capacity
    // is a third of the catalog; the tail always misses via the origin).
    std::vector<ContentId> head;
    for (std::size_t c = 0; c < 20; ++c)
      head.push_back(ContentId(static_cast<ContentId::rep_type>(c)));
    cdn.warm_cache(sid, head);
  }

  // --- control ---------------------------------------------------------------
  control::AppPConfig appp_cfg;
  appp_cfg.control_period = 10.0;
  appp_cfg.qoe_window = 60.0;
  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp", appp_cfg);
  appp.start();

  control::EnergyConfig energy_cfg;
  energy_cfg.control_period = config.energy_period;
  energy_cfg.scale_down_load = config.scale_down_load;
  energy_cfg.scale_up_load = config.scale_up_load;
  control::EnergyManager& energy = b.add_energy("cdn-energy", cdn, energy_cfg);
  b.wire_energy_a2i();
  energy.set_eona_enabled(config.eona);
  energy.start();

  // --- workload: diurnal cycle -------------------------------------------------
  std::vector<app::ArrivalPhase> phases;
  TimePoint t0 = 0.0;
  for (std::size_t c = 0; c < config.cycles; ++c) {
    phases.push_back({t0, config.day_rate});
    phases.push_back({t0 + config.phase_length, config.night_rate});
    t0 += 2.0 * config.phase_length;
  }
  TimePoint run_duration = t0;

  app::SessionPool& pool = b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  world->add_video_sessions(pool, appp.brain(), appp.collector(), {},
                            std::move(phases),
                            run_duration - config.video_duration, {client});

  EnergyScenarioResult result;
  sim::PeriodicTask sampler(sched, 5.0, [&] {
    result.metrics.series("online_servers")
        .record(sched.now(), static_cast<double>(cdn.online_count()));
    std::size_t active = 0, stalled = 0;
    pool.for_each([&](app::VideoPlayer& p) {
      ++active;
      if (p.stalled()) ++stalled;
    });
    result.metrics.series("stalled_fraction")
        .record(sched.now(),
                active == 0 ? 0.0 : static_cast<double>(stalled) / active);
  });

  // --- run -----------------------------------------------------------------------
  world->run(run_duration, ctx.perf);

  // --- summarise --------------------------------------------------------------------
  result.qoe = QoeSummary::from(pool.summaries());
  result.night_qoe = QoeSummary::from(
      pool.summaries(), [&](const app::SessionSummary& s) {
        // Night phases are the odd phase_length slots.
        auto slot = static_cast<std::size_t>(s.record.timestamp /
                                             config.phase_length);
        return slot % 2 == 1;
      });
  double total = static_cast<double>(config.servers) * run_duration;
  result.saved_fraction = energy.server_seconds_saved(run_duration) / total;
  result.mean_online =
      energy.online_series().time_weighted_mean(0.0, run_duration);
  result.shutdowns = energy.shutdowns();
  result.wakes = energy.wakes();
  return result;
}

}  // namespace eona::scenarios
