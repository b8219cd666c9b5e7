// Scale scenario (E17): a million-session world partitioned into sectors.
//
// The world is split into `sectors` independent ISP x CDN-region cells,
// each a complete mini sim::World (own scheduler, rng, network, CDN, AppP /
// InfP pair, session pool, auditor) assembled exactly like quickstart.
// Sectors couple only at barrier ticks: every `barrier_period` seconds all
// sectors advance to the barrier (serially, or on a SectorRunner pool when
// threads > 1), then a serial coordinator walks them in index order and
// reallocates a shared backbone headroom pool to the most-pressured access
// links. Because sectors share no mutable state between barriers and the
// coordinator is serial and order-fixed, the run's output is byte-identical
// at any thread count.
//
// Total admitted sessions is exact: each sector has a fixed quota
// (sessions / sectors, remainder spread over the low sectors), Poisson
// arrivals stop spawning at quota, and any Poisson shortfall is topped up
// at the first barrier past the arrival window.
//
// Barrier rounds are quiescence-aware (elide_quiescent): a sector with no
// session activity, a settled headroom grant, and its arrival window
// already handled is skipped for the round -- its clock catches up lazily
// the next time it is dispatched (or at the drain), firing exactly the
// same events in the same order, so the result JSON is byte-identical with
// elision on or off. See DESIGN.md "Quiescence and sparse barriers".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "scenarios/common.hpp"

namespace eona::scenarios {

struct ScaleConfig {
  std::uint64_t seed = 42;
  ControlMode mode = ControlMode::kEona;
  std::size_t sessions = 100'000;  ///< total admitted sessions, exact
  std::size_t sectors = 64;        ///< ISP x CDN-region cells
  std::size_t threads = 1;         ///< worker threads for barrier rounds
  Duration run_duration = 600.0;
  Duration video_duration = 120.0;
  Duration barrier_period = 30.0;  ///< coupling-point spacing
  BitsPerSecond access_capacity = mbps(60);  ///< per-sector base access
  /// Backbone headroom pool as a fraction of the summed base access
  /// capacity; redistributed at each barrier to sectors over 90% utilisation.
  double headroom_fraction = 0.1;
  /// Diurnal (night/day/night) arrival profile instead of a flat rate.
  bool diurnal = false;
  /// Night arrival rate as a fraction of the mean (diurnal only); the day
  /// peak is (2 - frac) x mean so the cycle mean stays the configured rate.
  /// 0.5 reproduces the original 0.5x..1.5x profile; 0 models a dead-of-
  /// night trough where whole sectors drain and can be elided.
  double diurnal_night_frac = 0.5;
  /// Length of the arrival window; 0 means run_duration - video_duration
  /// (the historical default, sized so the last arrival can finish). A
  /// shorter window models an evening peak followed by a quiet tail.
  Duration arrival_window = 0.0;
  /// Skip dispatching provably-quiescent sectors at barrier rounds (no
  /// session activity, settled grant, arrival window closed). Output is
  /// byte-identical either way -- pinned by tests -- so this is purely a
  /// wall-clock knob, kept toggleable for benchmarks and CI to prove it.
  bool elide_quiescent = true;
};

struct ScaleResult {
  QoeSummary qoe;                      ///< merged across all sectors
  std::vector<QoeSummary> per_sector;  ///< indexed by sector
  std::uint64_t events = 0;            ///< scheduler events, summed
  std::uint64_t arrivals = 0;          ///< sessions admitted (== sessions)
  std::size_t peak_concurrent = 0;     ///< max active sessions at a barrier
  std::uint64_t reallocations = 0;     ///< headroom grants that moved
  std::uint64_t barrier_rounds = 0;
  /// Dispatch accounting (not serialized into the scenario JSON, which must
  /// stay byte-identical with elision on or off): sector advances actually
  /// run, and quiescent sectors skipped with a deferred clock catch-up.
  std::uint64_t sectors_dispatched = 0;
  std::uint64_t sectors_elided = 0;
};

/// Only `ctx.perf` applies: a sector-sharded run records no trace or store.
ScaleResult run_scale(const ScaleConfig& config, const RunContext& ctx = {});

}  // namespace eona::scenarios
