// §2 "coarse control" scenario: a server inside CDN 1 degrades mid-run.
//
// Baseline players can only react at CDN granularity: they abandon CDN 1
// wholesale for CDN 2, whose caches are cold -- every fetch detours through
// the narrow origin path, so the "fix" hurts, and CDN 1 loses the traffic
// (and revenue). With EONA-I2A server hints the players switch to CDN 1's
// healthy sibling server, whose cache is warm: less disruption, and the CDN
// keeps the traffic.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"
#include "sim/timeseries.hpp"

namespace eona::scenarios {

struct CoarseControlConfig {
  std::uint64_t seed = 1;
  ControlMode mode = ControlMode::kBaseline;
  double arrival_rate = 0.25;
  Duration video_duration = 180.0;
  TimePoint incident_at = 240.0;
  TimePoint run_duration = 900.0;
  BitsPerSecond server_capacity = mbps(150);
  BitsPerSecond origin_capacity = mbps(30);  ///< the cold-cache penalty
  double degraded_factor = 0.05;  ///< bad server keeps this capacity share
  std::size_t catalog_size = 40;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
};

struct CoarseControlResult {
  QoeSummary qoe;            ///< all sessions
  QoeSummary post_incident;  ///< sessions finishing after the incident
  double cdn1_traffic_share = 0.0;   ///< post-incident bits via CDN 1
  double cdn2_hit_ratio = 0.0;       ///< CDN 2 cache hits (cold-start pain)
  std::uint64_t cdn_switches = 0;
  std::uint64_t server_switches = 0;
  sim::MetricSet metrics;  ///< series: stalled_fraction
};

[[nodiscard]] CoarseControlResult
run_coarse_control(const CoarseControlConfig& config,
                   const RunContext& ctx = {});

}  // namespace eona::scenarios
