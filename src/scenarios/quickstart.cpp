#include "scenarios/quickstart.hpp"

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

  // Workload: Poisson video sessions until the tail can still finish.
  world->add_video_sessions(*starter.pool, *starter.brain,
                            starter.appp->collector(), {},
                            {{0.0, config.arrival_rate}},
                            config.run_duration - config.video_duration,
                            {starter.client});
  world->run(config.run_duration, ctx.perf);

  QuickstartResult result;
  result.qoe = QoeSummary::from(starter.pool->summaries());
  return result;
}

}  // namespace eona::scenarios
