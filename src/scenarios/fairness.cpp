#include "scenarios/fairness.hpp"

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
  TimePoint arrivals_end = config.run_duration - config.video_duration;
  world->add_video_sessions(pool1, appp1.brain(), appp1.collector(),
                            {.ladder = kVideoLadder}, {{0.0, config.rate1}},
                            arrivals_end, {fig5.client});
  world->add_video_sessions(pool2, appp2.brain(), appp2.collector(),
                            {.ladder = kVideoLadder}, {{0.0, config.rate2}},
                            arrivals_end, {fig5.client});

  // --- run --------------------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

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
