#include "scenarios/federation.hpp"

#include <array>
#include <memory>

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
  for (std::size_t i = 0; i < kTenants; ++i)
    world->add_video_sessions(
        *pools[i], plane.appps[i]->brain(), plane.appps[i]->collector(),
        {.ladder = kVideoLadder}, {{0.0, config.arrival_rate}},
        config.run_duration - config.video_duration,
        {plane.clients.begin(), plane.clients.end()});

  // --- run -------------------------------------------------------------------
  world->run(config.run_duration, ctx.perf);

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
