#include "scenarios/failover.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "scenarios/chaos.hpp"
#include "scenarios/worlds.hpp"

namespace eona::scenarios {

FailoverResult run_failover(const FailoverConfig& config,
                            const RunContext& ctx) {
  FailoverResult result;
  sim::World::Builder b(config.seed);
  b.attach(ctx);
  // Oscillation's two-interconnect shape, sized healthy. X@B is the ISP's
  // preferred interconnect, and the one the chaos plan kills.
  const Fig5World fig5 =
      build_fig5_world(b, config.capacity_b, config.capacity_cx,
                       config.capacity_cy, config.video_duration);

  // --- control planes -----------------------------------------------------
  control::AppPConfig appp_cfg;
  appp_cfg.control_period = config.appp_period;
  appp_cfg.intended_bitrate = kVideoLadder.back();
  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp", appp_cfg);

  control::InfPConfig infp_cfg;
  infp_cfg.control_period = config.infp_period;
  // No attach_cdn: srv_x is dual-homed (B and C), so an egress-link health
  // check would wrongly hint it offline during the B outage; the peering
  // status rows carry the outage signal here.
  control::InfPController& infp =
      b.add_infp("access-isp", fig5.isp, {}, infp_cfg);

  b.wire_tenant();
  appp.set_eona_enabled(config.mode != ControlMode::kBaseline);
  infp.set_eona_enabled(config.mode != ControlMode::kBaseline);
  appp.start();
  infp.start();

  // --- workload -----------------------------------------------------------
  app::SessionPool& pool = b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  sim::Scheduler& sched = world->sched();
  // Failure accounting: the result outlives the world, so these handlers
  // can never outlive what they count into.
  world->bus().subscribe<sim::TransferAbortedEvent>(
      [&](const sim::TransferAbortedEvent&) { ++result.aborted_transfers; });
  world->bus().subscribe<sim::SessionStrandedEvent>(
      [&](const sim::SessionStrandedEvent&) { ++result.stranded_sessions; });
  world->bus().subscribe<sim::SessionResumedEvent>(
      [&](const sim::SessionResumedEvent&) { ++result.resumed_sessions; });

  world->add_video_sessions(pool, appp.brain(), appp.collector(),
                            {.ladder = kVideoLadder},
                            {{0.0, config.arrival_rate}},
                            config.run_duration - config.video_duration,
                            {fig5.client});

  // --- chaos --------------------------------------------------------------
  sim::FaultPlan plan;
  if (!config.faults.empty()) {
    plan = sim::FaultPlan::parse(config.faults);
  } else {
    sim::FaultAction down;
    down.kind = sim::FaultAction::Kind::kLinkDown;
    down.at = config.outage_start;
    down.target = "X@B";
    plan.actions.push_back(down);
    if (config.outage_duration > 0.0) {
      sim::FaultAction up = down;
      up.kind = sim::FaultAction::Kind::kLinkUp;
      up.at = config.outage_start + config.outage_duration;
      plan.actions.push_back(up);
    }
  }
  std::unique_ptr<sim::ChaosEngine> chaos = sim::schedule_faults(*world, plan);

  // --- recovery sampling --------------------------------------------------
  // 1 Hz: rebuffer-seconds is the integral of the stalled-player count after
  // the outage; recovery is the moment the last stalled sample was seen.
  const Duration sample_dt = 1.0;
  TimePoint last_stalled_at = config.outage_start;
  bool any_stalled = false;
  sim::PeriodicTask sampler(sched, sample_dt, [&] {
    std::size_t stalled = pool.stalled_count();
    std::size_t stranded = pool.stranded_count();
    result.metrics.series("stalled").record(
        sched.now(), static_cast<double>(stalled));
    result.metrics.series("stranded").record(
        sched.now(), static_cast<double>(stranded));
    result.metrics.series("active").record(
        sched.now(), static_cast<double>(pool.active_count()));
    if (sched.now() < config.outage_start) return;
    result.rebuffer_seconds += static_cast<double>(stalled) * sample_dt;
    if (stalled > 0 || stranded > 0) {
      any_stalled = true;
      last_stalled_at = sched.now();
    }
  });

  // --- run ----------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

  // --- summarise ----------------------------------------------------------
  result.qoe = QoeSummary::from(pool.summaries());
  result.time_to_recovery =
      any_stalled ? last_stalled_at - config.outage_start : 0.0;
  result.faults = chaos != nullptr ? chaos->fault_count() : 0;
  result.infp_failovers = infp.failovers();
  result.auditor_checks = world->auditor().check_count();
  return result;
}

}  // namespace eona::scenarios
