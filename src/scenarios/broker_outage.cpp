#include "scenarios/broker_outage.hpp"

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "scenarios/chaos.hpp"
#include "scenarios/worlds.hpp"

namespace eona::scenarios {

namespace {
constexpr std::size_t kIsps = FederationPlane::kIsps;
constexpr std::size_t kTenants = FederationPlane::kTenants;  ///< pre-outage
}  // namespace

BrokerOutageResult run_broker_outage(const BrokerOutageConfig& config,
                                     const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);
  // The E19 plane with one tenant heavy. The broker is always on here: E20
  // must show containment *across* the outage. Quotas are negotiated per
  // tenant: the heavy tenant carries most of the viewers, the liar gets a
  // fifth no matter what it claims. The informed (forecast-driven) egress
  // split tracks these shares -- exactly what the naive equal-split
  // fallback loses when the broker dies. The survivability knob: robust
  // fetchers keep last-known-good data (with a finite staleness deadline,
  // so degradation is *visible* to the controllers); the naive arm clears
  // its view on every miss.
  const std::array<double, kTenants> quotas{0.2, 0.6, 0.2};
  const FederationPlane plane = build_federation_plane(
      b, config.access_capacity, config.pool, config.video_duration,
      config.exaggeration, quotas, config.degraded,
      /*freshness_deadline=*/90.0);

  // --- workloads (tenant 1 heavy; pool 3 reserved for the joiner) -----------
  std::array<app::SessionPool*, kTenants + 1> pools{};
  for (std::size_t i = 0; i < kTenants + 1; ++i) pools[i] = &b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  sim::Scheduler& sched = world->sched();
  // Tenant `tenant`'s sessions into its own pool, alternating ISPs.
  TimePoint arrivals_end = config.run_duration - config.video_duration;
  auto add_sessions = [&](std::size_t tenant, double rate) {
    control::AppPController& appp = world->appp(tenant);
    world->add_video_sessions(*pools[tenant], appp.brain(), appp.collector(),
                              {.ladder = kVideoLadder}, {{0.0, rate}},
                              arrivals_end,
                              {plane.clients.begin(), plane.clients.end()});
  };
  for (std::size_t i = 0; i < kTenants; ++i)
    add_sessions(i, i == 1 ? config.heavy_arrival_rate : config.arrival_rate);

  // --- chaos: the broker dies ------------------------------------------------
  sim::FaultPlan plan;
  if (!config.faults.empty()) {
    plan = sim::FaultPlan::parse(config.faults);
  } else if (config.crash_at > 0.0) {
    sim::FaultAction crash;
    crash.kind = sim::FaultAction::Kind::kExchangeCrash;
    crash.at = config.crash_at;
    crash.target = "exchange";
    plan.actions.push_back(crash);
    if (config.restart_at > config.crash_at) {
      sim::FaultAction restart = crash;
      restart.kind = sim::FaultAction::Kind::kExchangeRestart;
      restart.at = config.restart_at;
      plan.actions.push_back(restart);
    }
  }
  std::unique_ptr<sim::ChaosEngine> chaos = sim::schedule_faults(*world, plan);

  // --- mid-run tenant churn --------------------------------------------------
  if (config.churn_join_at > 0.0) {
    sched.post_at(config.churn_join_at, [&] {
      control::AppPConfig cfg = plane.appp_cfg;  // honest joiner
      control::AppPController& joiner =
          world->churn_add_appp("appp3", cfg, core::TenantQuota{0.2});
      for (std::size_t k = 0; k < kIsps; ++k)
        world->churn_wire(kTenants, k);
      // The joiner rides tenant 2's CDN (a new ingress footprint cannot be
      // built mid-run; sharing one is how real tenants onboard).
      joiner.set_primary_cdn(plane.cdns[2]->id(), "pinned");
      joiner.start();
      if (arrivals_end > sched.now())
        add_sessions(kTenants, config.arrival_rate);
    });
  }
  if (config.churn_leave_at > 0.0) {
    sched.post_at(config.churn_leave_at,
                  [&] { world->churn_unwire(2, 1); });
  }

  // --- rebuffer sampling (1 Hz, integrated from the crash on) ----------------
  const Duration sample_dt = 1.0;
  BrokerOutageResult result;
  // Containment probe: the liar's realised egress share once the plane has
  // settled after the restart (every backoff horizon is < 80 s) but before
  // tenant churn renormalizes the quota denominators.
  TimePoint probe_at = config.restart_at > config.crash_at
                           ? config.restart_at + 80.0
                           : config.run_duration - 1.0;
  sched.post_at(probe_at, [&] {
    result.liar_share = 0.0;
    for (control::InfPController* infp : plane.infps)
      result.liar_share += infp->egress_share_of(plane.cdns[0]->id()) /
                           static_cast<double>(kIsps);
  });
  sim::PeriodicTask sampler(sched, sample_dt, [&] {
    if (sched.now() < config.crash_at) return;
    std::size_t stalled = 0;
    for (app::SessionPool* pool : pools) stalled += pool->stalled_count();
    result.rebuffer_seconds += static_cast<double>(stalled) * sample_dt;
  });

  // --- run -------------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

  // --- summarise -------------------------------------------------------------
  std::vector<const QoeSummary::Sessions*> original;
  for (std::size_t i = 0; i < kTenants; ++i)
    original.push_back(&pools[i]->summaries());
  result.qoe = QoeSummary::from_parts(original);
  result.heavy = QoeSummary::from(pools[1]->summaries());
  result.joiner = QoeSummary::from(pools[kTenants]->summaries());

  // Reattach telemetry: every controller bound before the crash must have
  // re-registered within the policy's horizon of the restart.
  core::ReattachPolicy policy;  // all controllers run the default schedule
  result.reattach_horizon = policy.horizon();
  auto fold_port = [&](const core::ExchangeEndpoint& port) {
    result.reattaches += port.reattach_count();
    result.reattach_attempts += port.reattach_attempts();
    if (port.detached_seconds() > result.detached_seconds)
      result.detached_seconds = port.detached_seconds();
    if (port.reattach_count() > 0) {
      double latency = port.last_reattach_at() - config.restart_at;
      if (latency > result.time_to_reattach) result.time_to_reattach = latency;
    }
  };
  for (control::AppPController* appp : plane.appps) fold_port(appp->port());
  for (control::InfPController* infp : plane.infps) fold_port(infp->port());

  result.epoch_rejected = world->exchange().epoch_rejected();
  result.clamps = world->exchange().clamp_count();
  result.rate_limited = world->exchange().total_delivery_stats().rate_limited;
  result.faults = chaos != nullptr ? chaos->fault_count() : 0;
  result.exchange_checks = world->auditor().exchange_checks();
  result.auditor_checks = world->auditor().check_count();
  return result;
}

}  // namespace eona::scenarios
