#include "scenarios/quickstart.hpp"

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "scenarios/chaos.hpp"
#include "scenarios/worlds.hpp"

namespace eona::scenarios {

QuickstartResult run_quickstart(const QuickstartConfig& config,
                                const RunContext& ctx) {
  // World assembly: build_starter_world is nothing but Builder conveniences;
  // compare with flashcrowd.cpp for the raw-topology version of the same
  // wiring.
  sim::World::Builder b(config.seed);
  b.attach(ctx);
  const StarterWorld starter = build_starter_world(
      b, config.mode, config.access_capacity, config.video_duration);
  std::unique_ptr<sim::World> world = b.build();
  auto chaos = sim::schedule_faults(*world, config.faults);
  sim::Scheduler& sched = world->sched();
  app::SessionPool& pool = *starter.pool;

  // Workload: Poisson video sessions until the tail can still finish.
  app::ContentCatalog& catalog = world->catalog();
  sim::Rng content_rng = world->rng().fork();
  SessionId::rep_type next_session = 0;
  auto spawn = [&] {
    SessionId session(next_session++);
    telemetry::Dimensions dims;
    dims.isp = starter.isp;
    ContentId content = catalog.sample(content_rng);
    pool.spawn_player(sched, world->transfers(), world->network(),
                      world->routing(), world->directory(), *starter.brain,
                      &starter.appp->collector(), app::PlayerConfig{}, session,
                      dims, starter.client, catalog.item(content),
                      qoe::EngagementModel{});
  };
  app::PoissonArrivals arrivals(
      sched, world->rng().fork(), {{0.0, config.arrival_rate}},
      config.run_duration - config.video_duration, spawn);

  sched.run_until(config.run_duration);
  arrivals.stop();
  pool.abort_all();
  sched.run_until(config.run_duration + 1.0);
  world->finish(ctx.perf);

  QuickstartResult result;
  result.qoe = QoeSummary::from(pool.summaries());
  return result;
}

}  // namespace eona::scenarios
