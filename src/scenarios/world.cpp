#include "scenarios/world.hpp"

namespace eona::sim {

app::PoissonArrivals& World::add_video_sessions(
    app::SessionPool& pool, app::PlayerBrain& brain,
    telemetry::BeaconCollector& collector, app::PlayerConfig player,
    std::vector<app::ArrivalPhase> phases, TimePoint end,
    std::vector<NodeId> clients) {
  EONA_EXPECTS(catalog_.has_value() && network_ != nullptr);
  EONA_EXPECTS(!clients.empty());
  if (workload_ == nullptr)
    workload_ = std::make_unique<VideoWorkload>(rng_.fork());
  auto spawn = [this, &pool, &brain, &collector, player = std::move(player),
                clients = std::move(clients), n = std::size_t{0}]() mutable {
    const std::size_t k = n++ % clients.size();
    SessionId session(workload_->next_session++);
    telemetry::Dimensions dims;
    dims.isp = IspId(static_cast<IspId::rep_type>(k));
    ContentId content = catalog_->sample(workload_->content);
    pool.spawn_player(sched_, *transfers_, *network_, *routing_, directory_,
                      brain, &collector, player, session, dims, clients[k],
                      catalog_->item(content), qoe::EngagementModel{});
  };
  workload_->arrivals.push_back(std::make_unique<app::PoissonArrivals>(
      sched_, rng_.fork(), std::move(phases), end, std::move(spawn)));
  return *workload_->arrivals.back();
}

void World::run(TimePoint until, scenarios::RunPerf* perf) {
  sched_.run_until(until);
  if (workload_ != nullptr)
    for (auto& arrivals : workload_->arrivals) arrivals->stop();
  for (auto& pool : pools_) pool->abort_all();
  sched_.run_until(until + 1.0);
  finish(perf);
}

}  // namespace eona::sim
