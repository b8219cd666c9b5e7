#include "scenarios/oscillation.hpp"

#include "app/video_player.hpp"
#include "control/oscillation.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/worlds.hpp"

namespace eona::scenarios {

OscillationResult run_oscillation(const OscillationConfig& config,
                                  const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);
  const Fig5World fig5 =
      build_fig5_world(b, config.capacity_b, config.capacity_cx,
                       config.capacity_cy, config.video_duration);
  app::Cdn& cdn_x = *fig5.cdn_x;
  IspId isp = fig5.isp;

  // --- control planes ---------------------------------------------------------
  control::AppPConfig appp_cfg;
  appp_cfg.control_period = config.appp_period;
  appp_cfg.qoe_window = 60.0;
  appp_cfg.bad_qoe_buffering = 0.03;
  appp_cfg.bad_qoe_bitrate = mbps(1.2);  // below this the AppP acts
  appp_cfg.primary_dwell = config.appp_dwell;
  appp_cfg.intended_bitrate = kVideoLadder.back();
  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp", appp_cfg);

  control::InfPConfig infp_cfg;
  infp_cfg.control_period = config.infp_period;
  infp_cfg.egress_dwell = config.infp_dwell;
  control::InfPController& infp = b.add_infp("access-isp", isp, {}, infp_cfg);

  core::TenantLink link;
  link.a2i_delay = config.a2i_delay;
  link.i2a_delay = config.i2a_delay;
  link.a2i_policy = config.a2i_policy;
  link.i2a_policy = config.i2a_policy;
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

  // --- workload ---------------------------------------------------------------
  app::SessionPool& pool = b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  world->add_video_sessions(pool, brain, appp.collector(),
                            {.ladder = kVideoLadder},
                            {{0.0, config.arrival_rate}},
                            config.run_duration - config.video_duration,
                            {fig5.client});

  // --- joint-state sampling ------------------------------------------------------
  // Oscillation statistics cover [measure_from, measure_to): the warmup and
  // the end-of-run traffic drain (where returning to the cheap point is
  // correct, not flapping) are excluded.
  const TimePoint measure_to = config.run_duration - config.video_duration;
  OscillationResult result;
  control::CycleDetector detector;
  sim::PeriodicTask sampler(sched, config.infp_period, [&] {
    int primary = static_cast<int>(appp.primary_cdn().value());
    int egress = static_cast<int>(
        world->peering().selected(isp, cdn_x.id()).value());
    if (sched.now() < measure_to) detector.observe(primary * 16 + egress);
    result.metrics.series("primary_cdn")
        .record(sched.now(), static_cast<double>(primary));
    result.metrics.series("x_egress")
        .record(sched.now(), static_cast<double>(egress));
    double bitrate = 0.0;
    std::size_t active = 0;
    pool.for_each([&](app::VideoPlayer& p) {
      ++active;
      bitrate += kVideoLadder[p.bitrate_index()];
    });
    result.metrics.series("mean_bitrate")
        .record(sched.now(), active == 0 ? 0.0 : bitrate / active);
  });

  // --- run ---------------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

  // --- summarise ------------------------------------------------------------------
  result.qoe = QoeSummary::from(pool.summaries());
  const control::DecisionTrace& appp_trace = appp.primary_trace();
  const control::DecisionTrace& infp_trace = infp.egress_trace(cdn_x.id());
  result.appp_switches =
      appp_trace.changes_between(config.measure_from, measure_to);
  result.infp_switches =
      infp_trace.changes_between(config.measure_from, measure_to);
  result.appp_reversals = appp_trace.reversal_count();
  result.infp_reversals = infp_trace.reversal_count();
  result.cycling = detector.cycling();
  result.converged = detector.converged();
  result.settled_at =
      std::max(appp_trace.settled_at(), infp_trace.settled_at());
  // The green path means *settling* on it: converged at the end of the
  // measurement window with primary on X and X entering via the IXP C.
  // A cycling run that merely passes through that state does not count.
  result.green_path =
      result.converged &&
      appp_trace.value_at(measure_to) == static_cast<int>(cdn_x.id().value()) &&
      infp_trace.value_at(measure_to) == static_cast<int>(fig5.peer_xc.value());
  return result;
}

}  // namespace eona::scenarios
