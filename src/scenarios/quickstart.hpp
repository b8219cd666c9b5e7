// The starter scenario: one access bottleneck, one warm CDN, one AppP/InfP
// pair -- assembled by build_starter_world (scenarios/worlds.hpp) from
// sim::World::Builder conveniences alone (no direct Scheduler/Network/
// TransferManager construction). scale builds the same world per sector.
//
// This is the template to copy when adding a new experiment, and the
// README's quick-start example; it stays deliberately boring so the Builder
// surface, not the scenario, is what a reader learns from it.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"

namespace eona::scenarios {

struct QuickstartConfig {
  std::uint64_t seed = 1;
  ControlMode mode = ControlMode::kBaseline;
  double arrival_rate = 0.3;  ///< sessions/s through the bottleneck
  BitsPerSecond access_capacity = mbps(60);
  Duration video_duration = 120.0;
  TimePoint run_duration = 600.0;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
};

struct QuickstartResult {
  QoeSummary qoe;
};

[[nodiscard]] QuickstartResult run_quickstart(const QuickstartConfig& config,
                                              const RunContext& ctx = {});

}  // namespace eona::scenarios
