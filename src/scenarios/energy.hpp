// §2/§5 server-energy scenario: a CDN operator scales its fleet with a
// diurnal load cycle.
//
// The baseline energy controller sees only server load: tuned aggressively
// it saves energy but tanks off-peak QoE (it cannot see the sessions it
// hurt); tuned conservatively it wastes energy. The EONA controller adds an
// A2I QoE guardrail -- scale down only while client experience is healthy,
// wake immediately when it degrades -- reaching near-baseline savings at
// near-zero QoE cost.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"
#include "sim/timeseries.hpp"

namespace eona::scenarios {

struct EnergyScenarioConfig {
  std::uint64_t seed = 1;
  bool eona = false;              ///< guardrail on?
  double scale_down_load = 0.40;  ///< aggressiveness (swept by the bench)
  double scale_up_load = 0.80;
  std::size_t servers = 4;
  BitsPerSecond server_capacity = mbps(80);
  double day_rate = 0.45;    ///< arrivals/s at peak
  double night_rate = 0.15;  ///< arrivals/s off-peak
  Duration phase_length = 600.0;  ///< day and night each last this long
  std::size_t cycles = 2;         ///< day/night pairs
  Duration video_duration = 120.0;
  Duration energy_period = 30.0;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
};

struct EnergyScenarioResult {
  QoeSummary qoe;
  QoeSummary night_qoe;  ///< sessions finishing in night phases
  double saved_fraction = 0.0;  ///< server-seconds saved / total
  double mean_online = 0.0;
  std::uint64_t shutdowns = 0;
  std::uint64_t wakes = 0;
  sim::MetricSet metrics;  ///< series: online_servers, stalled_fraction
};

[[nodiscard]] EnergyScenarioResult
run_energy(const EnergyScenarioConfig& config,
           const RunContext& ctx = {});

}  // namespace eona::scenarios
