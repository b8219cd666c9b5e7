#include "scenarios/federation.hpp"

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/worlds.hpp"

namespace eona::scenarios {

namespace {
constexpr std::size_t kIsps = FederationPlane::kIsps;
constexpr std::size_t kTenants = FederationPlane::kTenants;
}  // namespace

FederationResult run_federation(const FederationConfig& config,
                                const RunContext& ctx) {
  sim::World::Builder b(config.seed);
  b.attach(ctx);
  // The broker arm gives every tenant an equal third of the pool.
  const std::array<double, kTenants> equal_quotas{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const FederationPlane plane = build_federation_plane(
      b, config.access_capacity, config.pool, config.video_duration,
      config.exaggeration,
      config.broker ? std::span<const double>(equal_quotas)
                    : std::span<const double>(),
      /*robust_fetch=*/true, core::RetryPolicy{}.freshness_deadline);

  // --- per-tenant workloads, alternating between the two ISPs ----------------
  std::array<app::SessionPool*, kTenants> pools{};
  for (std::size_t i = 0; i < kTenants; ++i) pools[i] = &b.add_session_pool();
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  app::ContentCatalog& catalog = world->catalog();

  app::PlayerConfig player_cfg;
  player_cfg.ladder = kVideoLadder;
  SessionId::rep_type next_session = 0;
  std::array<std::size_t, kTenants> isp_counter{};
  sim::Rng content_rng = world->rng().fork();

  auto spawner = [&](std::size_t tenant) {
    return [&, tenant] {
      SessionId session(next_session++);
      std::size_t k = isp_counter[tenant]++ % kIsps;
      telemetry::Dimensions dims;
      dims.isp = IspId(static_cast<IspId::rep_type>(k));
      ContentId content = catalog.sample(content_rng);
      pools[tenant]->spawn_player(
          sched, world->transfers(), world->network(), world->routing(),
          world->directory(), plane.appps[tenant]->brain(),
          &plane.appps[tenant]->collector(), player_cfg, session, dims,
          plane.clients[k], catalog.item(content), qoe::EngagementModel{});
    };
  };
  TimePoint arrivals_end = config.run_duration - config.video_duration;
  std::vector<std::unique_ptr<app::PoissonArrivals>> arrivals;
  for (std::size_t i = 0; i < kTenants; ++i)
    arrivals.push_back(std::make_unique<app::PoissonArrivals>(
        sched, world->rng().fork(),
        std::vector<app::ArrivalPhase>{{0.0, config.arrival_rate}},
        arrivals_end, spawner(i)));

  // --- run -------------------------------------------------------------------
  sched.run_until(config.run_duration);
  for (auto& a : arrivals) a->stop();
  for (app::SessionPool* pool : pools) pool->abort_all();
  sched.run_until(config.run_duration + 1.0);
  world->finish(ctx.perf);

  // --- summarise -------------------------------------------------------------
  FederationResult result;
  result.liar = QoeSummary::from(pools[0]->summaries());
  result.victim1 = QoeSummary::from(pools[1]->summaries());
  result.victim2 = QoeSummary::from(pools[2]->summaries());
  result.victim_mean_engagement = (result.victim1.mean_engagement +
                                   result.victim2.mean_engagement) /
                                  2.0;
  result.victim_mean_bitrate =
      (result.victim1.mean_bitrate + result.victim2.mean_bitrate) / 2.0;
  for (control::InfPController* infp : plane.infps) {
    result.liar_share +=
        infp->egress_share_of(plane.cdns[0]->id()) / static_cast<double>(kIsps);
    result.victim_share += (infp->egress_share_of(plane.cdns[1]->id()) +
                            infp->egress_share_of(plane.cdns[2]->id())) /
                           static_cast<double>(2 * kIsps);
  }
  result.clamps = world->exchange().clamp_count();
  result.rate_limited = world->exchange().total_delivery_stats().rate_limited;
  result.epoch_rejected = world->exchange().epoch_rejected();
  return result;
}

}  // namespace eona::scenarios
