#include "scenarios/fairness.hpp"

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/worlds.hpp"

namespace eona::scenarios {

FairnessResult run_fairness(const FairnessConfig& config,
                            const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);
  const Fig5World fig5 =
      build_fig5_world(b, config.capacity_b, config.capacity_cx,
                       config.capacity_cy, config.video_duration);

  // --- two AppP control planes, one InfP --------------------------------------
  control::AppPConfig appp_cfg;
  appp_cfg.control_period = 10.0;
  appp_cfg.qoe_window = 60.0;
  appp_cfg.bad_qoe_buffering = 0.03;
  appp_cfg.bad_qoe_bitrate = mbps(1.2);
  appp_cfg.intended_bitrate = kVideoLadder.back();
  b.add_exchange();
  control::AppPController& appp1 = b.add_appp("appp-large", appp_cfg);
  control::AppPController& appp2 = b.add_appp("appp-small", appp_cfg);

  control::InfPConfig infp_cfg;
  infp_cfg.control_period = 120.0;
  control::InfPController& infp =
      b.add_infp("access-isp", fig5.isp, {}, infp_cfg);

  // Wire each participating AppP; the ISP merges all subscribed A2I feeds.
  if (config.appp1_eona) b.wire_tenant(0);
  if (config.appp2_eona) b.wire_tenant(1);
  appp1.set_eona_enabled(config.appp1_eona);
  appp2.set_eona_enabled(config.appp2_eona);
  infp.set_eona_enabled(config.appp1_eona || config.appp2_eona);
  appp1.start();
  appp2.start();
  infp.start();

  // --- per-tenant workloads ------------------------------------------------------
  app::SessionPool& pool1 = b.add_session_pool();
  app::SessionPool& pool2 = b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  app::ContentCatalog& catalog = world->catalog();

  app::PlayerConfig player_cfg;
  player_cfg.ladder = kVideoLadder;
  SessionId::rep_type next_session = 0;
  sim::Rng content_rng = world->rng().fork();

  auto spawner = [&](control::AppPController& appp, app::SessionPool& pool) {
    return [&] {
      SessionId session(next_session++);
      telemetry::Dimensions dims;
      dims.isp = fig5.isp;
      ContentId content = catalog.sample(content_rng);
      pool.spawn_player(sched, world->transfers(), world->network(),
                        world->routing(), world->directory(), appp.brain(),
                        &appp.collector(), player_cfg, session, dims,
                        fig5.client, catalog.item(content),
                        qoe::EngagementModel{});
    };
  };
  TimePoint arrivals_end = config.run_duration - config.video_duration;
  app::PoissonArrivals arrivals1(sched, world->rng().fork(),
                                 {{0.0, config.rate1}}, arrivals_end,
                                 spawner(appp1, pool1));
  app::PoissonArrivals arrivals2(sched, world->rng().fork(),
                                 {{0.0, config.rate2}}, arrivals_end,
                                 spawner(appp2, pool2));

  // --- run --------------------------------------------------------------------------
  sched.run_until(config.run_duration);
  arrivals1.stop();
  arrivals2.stop();
  pool1.abort_all();
  pool2.abort_all();
  sched.run_until(config.run_duration + 1.0);
  world->finish(ctx.perf);

  // --- summarise -----------------------------------------------------------------------
  FairnessResult result;
  result.appp1 = QoeSummary::from(pool1.summaries());
  result.appp2 = QoeSummary::from(pool2.summaries());
  result.engagement_gap =
      std::abs(result.appp1.mean_engagement - result.appp2.mean_engagement);
  const control::DecisionTrace& trace = infp.egress_trace(fig5.cdn_x->id());
  result.isp_switches =
      trace.changes_between(config.measure_from, arrivals_end);
  result.green_path =
      trace.value_at(arrivals_end) == static_cast<int>(fig5.peer_xc.value());
  return result;
}

}  // namespace eona::scenarios
