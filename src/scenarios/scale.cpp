#include "scenarios/scale.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "app/content_catalog.hpp"
#include "app/video_player.hpp"
#include "app/workload.hpp"
#include "scenarios/worlds.hpp"
#include "sim/sector.hpp"

namespace eona::scenarios {
namespace {

constexpr TimePoint kNever = std::numeric_limits<TimePoint>::infinity();

/// One ISP x CDN-region cell: a full mini world plus its workload state.
/// Everything here is private to the sector between barriers, so worker
/// threads can advance different sectors concurrently.
struct Sector {
  std::unique_ptr<sim::World> world;
  StarterWorld starter;  ///< the world's pool, AppP, brain and endpoints
  std::optional<sim::Rng> content_rng;
  std::optional<app::PoissonArrivals> arrivals;
  std::size_t quota = 0;    ///< sessions this sector must admit, exact
  std::size_t spawned = 0;  ///< sessions admitted so far
  SessionId::rep_type next_session = 0;
  bool window_closed = false;
  double grant = 0.0;  ///< current backbone headroom grant (bps)
  /// Coordinator-written: did the last grant pass move this sector's
  /// capacity? A moved capacity re-rates flows, so the sector must run
  /// next round (quiescence requires a settled grant).
  bool grant_changed = true;
};

/// Cache-line-padded per-sector mailbox: each worker publishes its sector's
/// coordination inputs here at the end of its parallel advance, so the
/// serial coordinator folds N plain doubles in sector order instead of
/// poking every sector's Network and SessionPool from the coordinator
/// thread -- and two workers never write the same cache line.
struct alignas(64) SectorSlot {
  double pressure = 0.0;  ///< max(0, access utilization - threshold)
  /// Earliest pending event in the sector's scheduler after its last
  /// advance; starts at 0 so every sector is dispatched in round one.
  double next_event = 0.0;
  std::uint32_t active = 0;      ///< live sessions after the last advance
  bool pressure_changed = true;  ///< pressure moved vs the previous round
};
static_assert(sizeof(SectorSlot) == 64, "one cache line per sector");

void spawn_session(Sector& sec) {
  const StarterWorld& w = sec.starter;
  SessionId session(sec.next_session++);
  telemetry::Dimensions dims;
  dims.isp = w.isp;
  app::ContentCatalog& catalog = sec.world->catalog();
  ContentId content = catalog.sample(*sec.content_rng);
  w.pool->spawn_player(sec.world->sched(), sec.world->transfers(),
                       sec.world->network(), sec.world->routing(),
                       sec.world->directory(), *w.brain, &w.appp->collector(),
                       app::PlayerConfig{}, session, dims, w.client,
                       catalog.item(content), qoe::EngagementModel{});
  ++sec.spawned;
}

/// Assemble one sector world -- the quickstart starter world, seeded from a
/// salted fork of the experiment seed so sectors draw independent streams.
std::unique_ptr<Sector> make_sector(const ScaleConfig& config,
                                    Duration window,
                                    std::uint64_t sector_seed,
                                    std::size_t quota) {
  auto sec = std::make_unique<Sector>();
  sim::World::Builder b(sector_seed);
  sec->starter = build_starter_world(
      b, config.mode, config.access_capacity, config.video_duration);
  sec->world = b.build();
  sec->content_rng.emplace(sec->world->rng().fork());
  sec->quota = quota;

  // Pre-size the pool for the expected concurrency (admission rate x video
  // duration, doubled for burst slack) -- steady churn then never allocates.
  // Clamp the estimate's window to the video duration: a shorter window
  // (run_duration barely above video_duration, or an explicit short
  // arrival_window) means sessions genuinely all overlap, and the quota is
  // the true concurrency ceiling -- without the floor the rate x duration
  // estimate blows past the quota (and past what a size_t cast tolerates).
  Duration est_window = std::max(window, config.video_duration);
  auto concurrent = static_cast<std::size_t>(
      static_cast<double>(quota) * config.video_duration / est_window);
  sec->starter.pool->reserve(std::min(quota, 2 * concurrent + 8));
  return sec;
}

}  // namespace

ScaleResult run_scale(const ScaleConfig& config, const RunContext& ctx) {
  // Sectors run on worker threads: one shared trace or store cannot follow.
  EONA_EXPECTS(ctx.trace == nullptr && ctx.store == nullptr);
  EONA_EXPECTS(config.sectors >= 1);
  EONA_EXPECTS(config.threads >= 1);
  EONA_EXPECTS(config.barrier_period > 0.0);
  EONA_EXPECTS(config.video_duration > 0.0);
  EONA_EXPECTS(config.run_duration > config.video_duration);
  EONA_EXPECTS(config.arrival_window >= 0.0);
  EONA_EXPECTS(config.arrival_window <= config.run_duration);
  EONA_EXPECTS(config.diurnal_night_frac >= 0.0 &&
               config.diurnal_night_frac <= 1.0);

  // Arrival window: the historical default leaves exactly one video length
  // after the last arrival; an explicit shorter window models an evening
  // peak followed by a quiet tail (the regime quiescence elision targets).
  const Duration window = config.arrival_window > 0.0
                              ? config.arrival_window
                              : config.run_duration - config.video_duration;
  const std::size_t n = config.sectors;
  sim::Rng root(config.seed);

  std::vector<std::unique_ptr<Sector>> sectors;
  sectors.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t quota =
        config.sessions / n + (s < config.sessions % n ? 1 : 0);
    sectors.push_back(
        make_sector(config, window, root.fork_salted(s).seed(), quota));
  }

  // Arrival processes: per-sector Poisson at quota/window (flat) or a
  // raised-cosine diurnal profile with the same mean, capped at the quota.
  // The diurnal trough runs at night_frac x mean (day peak compensates).
  for (auto& sec_ptr : sectors) {
    Sector& sec = *sec_ptr;
    double rate = static_cast<double>(sec.quota) / window;
    std::vector<app::ArrivalPhase> phases =
        config.diurnal
            ? app::diurnal_phases(config.diurnal_night_frac * rate,
                                  (2.0 - config.diurnal_night_frac) * rate,
                                  window, 8, window)
            : std::vector<app::ArrivalPhase>{{0.0, rate}};
    sec.arrivals.emplace(sec.world->sched(), sec.world->rng().fork(),
                         std::move(phases), window, [&sec] {
                           if (sec.spawned < sec.quota) spawn_session(sec);
                         });
  }

  // Barrier loop: advance the active sectors to the next coupling point
  // (workers touch disjoint sectors), then serially rebalance backbone
  // headroom from the per-sector slots.
  sim::SectorRunner runner(config.threads);
  ScaleResult result;
  result.per_sector.resize(n);
  const double headroom_pool = config.headroom_fraction *
                               config.access_capacity *
                               static_cast<double>(n);
  constexpr double kPressureThreshold = 0.9;

  std::vector<SectorSlot> slots(n);
  auto advance = [&](std::size_t s, TimePoint target) {
    Sector& sec = *sectors[s];
    sec.world->sched().run_until(target);
    if (!sec.window_closed && target >= window) {
      // The arrival window is over: stop the process and top up any Poisson
      // shortfall so the sector admits exactly its quota.
      sec.window_closed = true;
      sec.arrivals.reset();
      while (sec.spawned < sec.quota) spawn_session(sec);
    }
    // Publish this sector's coordination inputs from the worker thread;
    // the serial barrier only ever reads the slot.
    SectorSlot& slot = slots[s];
    double pressure = std::max(
        0.0, sec.world->network().link_utilization(sec.starter.access) -
                 kPressureThreshold);
    slot.pressure_changed = pressure != slot.pressure;
    slot.pressure = pressure;
    slot.active =
        static_cast<std::uint32_t>(sec.starter.pool->active_count());
    slot.next_event = sec.world->sched().next_event_time_or(kNever);
  };

  using Clock = std::chrono::steady_clock;
  auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  std::uint64_t advance_ns = 0;
  std::uint64_t barrier_ns = 0;

  std::vector<std::size_t> active_idx;
  active_idx.reserve(n);
  for (TimePoint target = config.barrier_period;;
       target += config.barrier_period) {
    target = std::min(target, config.run_duration);

    // Classify each sector for the round. Quiescent = nothing it would run
    // before `target` can change what the coordinator reads: no live
    // sessions (so no flows -- pressure is 0 and frozen), a settled grant
    // (a moved capacity re-rates flows and must be observed), no possible
    // arrival before the target, and not the round that closes the arrival
    // window (the quota top-off must run). Such a sector keeps only
    // periodic control ticks, which fire identically -- same times, same
    // order -- when its clock catches up later, so skipping the dispatch
    // is observationally equal to running it (DESIGN.md "Quiescence and
    // sparse barriers"). Everything read here is either coordinator-owned
    // or frozen since the sector's last advance.
    Clock::time_point c0 = Clock::now();
    active_idx.clear();
    for (std::size_t s = 0; s < n; ++s) {
      Sector& sec = *sectors[s];
      SectorSlot& slot = slots[s];
      const bool crossing = !sec.window_closed && target >= window;
      const bool arrivals_quiet =
          sec.window_closed || sec.arrivals->next_fire_at() > target;
      // Two ways a round can be skipped: the sector is idle (no sessions,
      // so only periodic control ticks pend -- those defer losslessly), or
      // its scheduler literally has nothing to run before the target (the
      // dispatch would be a bare clock move). Both require zero pressure:
      // a zero-pressure sector's headroom grant computes to 0 whatever the
      // others do, so the coordinator never mutates a lagging clock.
      const bool idle = slot.active == 0;
      const bool no_event_due = slot.next_event > target;
      const bool quiescent = config.elide_quiescent && !crossing &&
                             !sec.grant_changed && slot.pressure == 0.0 &&
                             arrivals_quiet && (idle || no_event_due);
      if (quiescent) {
        // Frozen by definition; the stale flag from the sector's last
        // dispatched round must not re-dirty the grant pass.
        slot.pressure_changed = false;
      } else {
        active_idx.push_back(s);
      }
    }
    result.sectors_dispatched += active_idx.size();
    result.sectors_elided += n - active_idx.size();

    Clock::time_point c1 = Clock::now();
    runner.run_round(std::span<const std::size_t>(active_idx),
                     [&](std::size_t s) { advance(s, target); });
    Clock::time_point c2 = Clock::now();
    ++result.barrier_rounds;

    // Serial coordinator, fixed sector order: fold the slots (the same
    // arithmetic, in the same order, as reading each sector directly),
    // then grant the headroom pool to sectors in proportion to their
    // access-link pressure -- but only when some sector's pressure moved;
    // otherwise every grant would recompute to itself.
    double total_pressure = 0.0;
    std::size_t concurrent = 0;
    bool dirty = false;
    for (std::size_t s = 0; s < n; ++s) {
      concurrent += slots[s].active;
      total_pressure += slots[s].pressure;
      dirty |= slots[s].pressure_changed;
    }
    result.peak_concurrent = std::max(result.peak_concurrent, concurrent);
    if (dirty) {
      for (std::size_t s = 0; s < n; ++s) {
        Sector& sec = *sectors[s];
        double grant = total_pressure > 0.0
                           ? headroom_pool * slots[s].pressure / total_pressure
                           : 0.0;
        sec.grant_changed = grant != sec.grant;
        if (!sec.grant_changed) continue;
        sec.grant = grant;
        ++result.reallocations;
        sec.world->network().set_link_capacity(
            sec.starter.access, config.access_capacity + grant);
      }
    } else {
      for (std::size_t s = 0; s < n; ++s) sectors[s]->grant_changed = false;
    }
    Clock::time_point c3 = Clock::now();
    advance_ns += ns_between(c1, c2);
    barrier_ns += ns_between(c0, c1) + ns_between(c2, c3);
    if (target >= config.run_duration) break;
  }

  // Drain: abort the survivors (final beacons fire), let the deferred
  // teardown sweep run, and close the books. Every sector runs here --
  // elided sectors catch their clocks up, firing their deferred periodic
  // ticks in order -- so the drain parallelises like any other round.
  Clock::time_point d0 = Clock::now();
  runner.run_round(n, [&](std::size_t s) {
    Sector& sec = *sectors[s];
    sec.arrivals.reset();
    sec.starter.pool->abort_all();
    sec.world->sched().run_until(config.run_duration + 1.0);
    // The workers must not write the caller's RunPerf; the loop below folds
    // every sector's counters in sector order.
    sec.world->finish(nullptr);
  });
  result.sectors_dispatched += n;
  advance_ns += ns_between(d0, Clock::now());

  // The run's summary folds the sectors' own session lists in sector order;
  // no whole-run copy is made at the run's memory peak.
  std::vector<const QoeSummary::Sessions*> parts(n);
  for (std::size_t s = 0; s < n; ++s) {
    Sector& sec = *sectors[s];
    parts[s] = &sec.starter.pool->summaries();
    result.per_sector[s] = QoeSummary::from(*parts[s]);
    result.events += sec.world->sched().events_fired();
    result.arrivals += sec.spawned;
  }
  result.qoe = QoeSummary::from_parts(parts);
  if (RunPerf* perf = ctx.perf; perf != nullptr) {
    perf->events += result.events;
    perf->barrier_rounds += result.barrier_rounds;
    perf->sectors_dispatched += result.sectors_dispatched;
    perf->sectors_elided += result.sectors_elided;
    perf->parallel_advance_ns += advance_ns;
    perf->serial_barrier_ns += barrier_ns;
  }
  return result;
}

}  // namespace eona::scenarios
