// A scale-wired sector world that the benchmark builds itself.
//
// scale builds its sectors inside run_scale, where no caller can reach a
// sector's scheduler or event bus. The traced run, and the store phase of
// the scale workloads (scale refuses --store), therefore rebuild sectors
// here with the World::Builder calls, seeds, quota and arrival profile that
// scenarios/scale.cpp uses, and drive each one through the same barrier
// schedule, window-close top-up and drain. What a lone sector cannot have
// is the coordinator's cross-sector backbone headroom grant; the traced run
// reports the sample's fired events per sector against the full run's so
// that gap stays visible.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "app/workload.hpp"
#include "scenarios/scale.hpp"
#include "scenarios/world.hpp"

namespace perfbench {

using eona::Duration;
using eona::TimePoint;

/// Host time of the three groups of World::Builder calls, in microseconds.
struct BuildTimes {
  double network_us = 0.0;  ///< topology, catalog, CDN, build_network
  double control_us = 0.0;  ///< exchange, AppP/InfP, wiring, oracle
  double pool_us = 0.0;     ///< session pool, build, reserve, arrivals
};

struct SampleSector {
  std::unique_ptr<eona::sim::World> world;
  eona::app::SessionPool* pool = nullptr;
  eona::control::AppPController* appp = nullptr;
  eona::app::PlayerBrain* brain = nullptr;
  eona::NodeId client;
  std::optional<eona::sim::Rng> content_rng;
  std::optional<eona::app::PoissonArrivals> arrivals;
  std::size_t quota = 0;
  std::size_t spawned = 0;
  eona::SessionId::rep_type next_session = 0;
  bool window_closed = false;
  BuildTimes build;
  /// When set, every spawn_player call's host time (us) is appended here.
  std::vector<double>* spawn_us = nullptr;
};

[[nodiscard]] inline Duration arrival_window(
    const eona::scenarios::ScaleConfig& config) {
  return config.arrival_window > 0.0
             ? config.arrival_window
             : config.run_duration - config.video_duration;
}

inline void spawn_session(SampleSector& sec) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  eona::SessionId session(sec.next_session++);
  eona::telemetry::Dimensions dims;
  dims.isp = eona::IspId(0);
  eona::app::ContentCatalog& catalog = sec.world->catalog();
  eona::ContentId content = catalog.sample(*sec.content_rng);
  sec.pool->spawn_player(sec.world->sched(), sec.world->transfers(),
                         sec.world->network(), sec.world->routing(),
                         sec.world->directory(), *sec.brain,
                         &sec.appp->collector(), eona::app::PlayerConfig{},
                         session, dims, sec.client, catalog.item(content),
                         eona::qoe::EngagementModel{});
  ++sec.spawned;
  if (sec.spawn_us != nullptr)
    sec.spawn_us->push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
}

/// Build sector `s` of `config` exactly as run_scale does, optionally with
/// `store` ingesting its bus.
[[nodiscard]] inline std::unique_ptr<SampleSector> build_sector(
    const eona::scenarios::ScaleConfig& config, std::size_t s,
    eona::telemetry::ColumnStore* store = nullptr) {
  using namespace eona;
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  auto sec = std::make_unique<SampleSector>();
  const std::size_t n = config.sectors;
  sec->quota = config.sessions / n + (s < config.sessions % n ? 1 : 0);
  const Duration window = arrival_window(config);
  const IspId isp(0);

  const Clock::time_point t0 = Clock::now();
  sim::World::Builder b(sim::Rng(config.seed).fork_salted(s).seed());
  b.attach_store(store);
  b.add_isp_bottleneck(config.access_capacity);
  b.with_catalog(16, config.video_duration);
  sim::World::Builder::CdnSpec cdn_spec;
  cdn_spec.warm = true;
  b.add_cdn("cdn", cdn_spec);
  b.build_network(isp);
  const Clock::time_point t1 = Clock::now();

  b.add_exchange();
  control::AppPController& appp = b.add_appp("video-appp");
  control::InfPController& infp =
      b.add_infp("access-isp", isp, {b.access_link()});
  b.wire_tenant();
  const bool eona_on = config.mode != scenarios::ControlMode::kBaseline;
  appp.set_eona_enabled(eona_on);
  infp.set_eona_enabled(eona_on);
  appp.start();
  infp.start();
  control::OracleBrain& oracle = b.add_oracle();
  const Clock::time_point t2 = Clock::now();

  sec->pool = &b.add_session_pool();
  sec->appp = &appp;
  sec->brain = config.mode == scenarios::ControlMode::kOracle
                   ? static_cast<app::PlayerBrain*>(&oracle)
                   : &appp.brain();
  sec->client = b.client();
  sec->world = b.build();
  sec->content_rng.emplace(sec->world->rng().fork());
  const Duration est_window = std::max(window, config.video_duration);
  const auto concurrent = static_cast<std::size_t>(
      static_cast<double>(sec->quota) * config.video_duration / est_window);
  sec->pool->reserve(std::min(sec->quota, 2 * concurrent + 8));

  // run_scale creates every sector's arrival process after building all
  // sectors; each draws only from its own sector's rng, so creating it
  // here fires the same arrivals.
  const double rate = static_cast<double>(sec->quota) / window;
  std::vector<app::ArrivalPhase> phases =
      config.diurnal
          ? app::diurnal_phases(config.diurnal_night_frac * rate,
                                (2.0 - config.diurnal_night_frac) * rate,
                                window, 8, window)
          : std::vector<app::ArrivalPhase>{{0.0, rate}};
  SampleSector* raw = sec.get();
  sec->arrivals.emplace(sec->world->sched(), sec->world->rng().fork(),
                        std::move(phases), window, [raw] {
                          if (raw->spawned < raw->quota) spawn_session(*raw);
                        });
  const Clock::time_point t3 = Clock::now();
  sec->build = BuildTimes{us(t0, t1), us(t1, t2), us(t2, t3)};
  return sec;
}

/// Take one sector through scale's barrier schedule and drain. `run_to(t)`
/// moves the sector's clock to t; `between(fn)` runs fn, the caller-side
/// work scale does between rounds (the window-close top-up, the drain's
/// abort).
template <typename RunTo, typename Between>
void drive_sector(SampleSector& sec,
                  const eona::scenarios::ScaleConfig& config, RunTo&& run_to,
                  Between&& between) {
  const Duration window = arrival_window(config);
  for (TimePoint target = config.barrier_period;;
       target += config.barrier_period) {
    target = std::min(target, config.run_duration);
    run_to(target);
    if (!sec.window_closed && target >= window) {
      sec.window_closed = true;
      between([&] {
        sec.arrivals.reset();
        while (sec.spawned < sec.quota) spawn_session(sec);
      });
    }
    if (target >= config.run_duration) break;
  }
  between([&] {
    sec.arrivals.reset();
    sec.pool->abort_all();
  });
  run_to(config.run_duration + 1.0);
  sec.world->auditor().finalize();
}

/// The untraced drive: plain Scheduler::run_until, as run_scale advances.
inline void drive_plain(SampleSector& sec,
                        const eona::scenarios::ScaleConfig& config) {
  eona::sim::Scheduler& sched = sec.world->sched();
  drive_sector(
      sec, config, [&](TimePoint t) { sched.run_until(t); },
      [](auto&& fn) { fn(); });
}

}  // namespace perfbench
