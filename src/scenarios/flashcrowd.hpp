// Figure 3 scenario: a flash crowd congests the access ISP.
//
// HTTP adaptive players see collapsing throughput. In the baseline world
// the only recourse is CDN switching -- which cannot help, because the
// bottleneck is the shared access segment -- so players thrash between
// CDNs and buffer. In the EONA world the ISP's I2A congestion attribution
// ("it's the access network") suppresses switching and steers the ABR to
// step the aggregate down so the bottleneck drains.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "control/forecaster.hpp"
#include "control/infp.hpp"
#include "eona/fault.hpp"
#include "eona/robust.hpp"
#include "scenarios/common.hpp"
#include "sim/timeseries.hpp"
#include "telemetry/delivery_health.hpp"

namespace eona::scenarios {

struct FlashCrowdConfig {
  std::uint64_t seed = 1;
  ControlMode mode = ControlMode::kBaseline;
  BitsPerSecond access_capacity = mbps(60);
  BitsPerSecond origin_capacity = mbps(80);  ///< cache-miss detour capacity
  double arrival_rate = 0.35;  ///< steady video session arrivals/s
  /// The flash crowd: a surge of *other* traffic (news event, software
  /// rollout) that claims this fraction of the access capacity during the
  /// crowd window, squeezing the mid-stream video population.
  double crowd_background_fraction = 0.75;
  std::size_t crowd_flows = 120;  ///< the surge arrives as this many flows
  TimePoint crowd_start = 180.0;
  TimePoint crowd_end = 480.0;
  TimePoint run_duration = 780.0;
  Duration video_duration = 150.0;
  // --- EONA data-plane staleness (E8 sweeps these) ---
  Duration a2i_delay = 0.0;
  Duration i2a_delay = 0.0;
  // --- export policies (E7 interface-width sweeps) ---
  core::A2IPolicy a2i_policy{};
  core::I2APolicy i2a_policy{};
  // --- control-plane fault injection (E13 fault-tolerance bench) ---
  /// Per-direction fault profiles. A profile whose seed is 0 gets a
  /// deterministic seed derived from `seed`, so sweeps stay reproducible
  /// without coupling fault draws to the workload stream.
  core::FaultProfile a2i_fault{};
  core::FaultProfile i2a_fault{};
  // --- consumer robustness (both directions) ---
  bool robust_fetch = true;
  core::RetryPolicy retry{};
  double stale_widening = 2.0;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
  // --- elastic capacity provisioning (E16; off by default) ---
  /// InfP access-capacity provisioning. Forecast-driven mode additionally
  /// attaches a telemetry store to the InfP (RunContext::store, or an
  /// internal one when none is passed) so the forecaster trends link_rate
  /// rows.
  control::ProvisionConfig provision{};
  control::ForecastConfig forecast{};
  /// stalled_fraction above this counts toward time_over_qoe_threshold.
  double qoe_stall_threshold = 0.05;
};

struct FlashCrowdResult {
  QoeSummary qoe;         ///< all finished sessions
  QoeSummary crowd_qoe;   ///< sessions that finished during/just after the crowd
  double peak_stalled_fraction = 0.0;
  double mean_access_utilization = 0.0;  ///< during the crowd
  std::uint64_t arrivals = 0;
  sim::MetricSet metrics;  ///< series: stalled_fraction, active_sessions,
                           ///< mean_bitrate, access_util (2 s cadence)
  /// Delivery health of each consumption direction (AppP reading I2A,
  /// InfP reading A2I).
  telemetry::DeliveryHealthSnapshot i2a_health;
  telemetry::DeliveryHealthSnapshot a2i_health;
  // --- E16 provisioning outcomes ---
  /// Seconds of the run with stalled_fraction above qoe_stall_threshold
  /// (time-weighted over the 2 s sampling cadence).
  double time_over_qoe_threshold = 0.0;
  std::uint64_t provision_orders = 0;
  BitsPerSecond final_access_capacity = 0.0;
};

/// Build the world, run it, and summarise.
[[nodiscard]] FlashCrowdResult run_flash_crowd(const FlashCrowdConfig& config,
                                               const RunContext& ctx = {});

}  // namespace eona::scenarios
