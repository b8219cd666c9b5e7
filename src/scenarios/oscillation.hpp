// Figure 5 scenario: two independent control loops chase each other.
//
// One ISP peers with CDN X at a cheap local point B (small) and at a public
// IXP C (big); CDN Y is reachable only at C (and is capacity-limited). The
// AppP steers all sessions to one primary CDN; the ISP picks X's ingress
// point.
//
// Baseline: demand on X exceeds B; QoE tanks; the AppP flees to Y; Y can't
// carry the load; the ISP meanwhile drifts X's ingress back to the now-idle
// cheap point B; the AppP returns to X; repeat -- the paper's infinite
// cycle. The uncongested green path (X via C) is never found because
// neither loop knows what the other needs.
//
// EONA: the A2I traffic forecast tells the ISP X's intended volume doesn't
// fit B, so it selects C and holds; the I2A peering status tells the AppP
// the interconnect (not the CDN) was the problem and that C has headroom,
// so it stays on X. Green path, first try.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"
#include "sim/timeseries.hpp"

namespace eona::scenarios {

struct OscillationConfig {
  std::uint64_t seed = 1;
  ControlMode mode = ControlMode::kBaseline;
  BitsPerSecond capacity_b = mbps(45);    ///< X at local point B (cheap)
  BitsPerSecond capacity_cx = mbps(400);  ///< X at the IXP C
  BitsPerSecond capacity_cy = mbps(50);   ///< Y at the IXP C
  double arrival_rate = 0.25;             ///< sessions/s
  Duration video_duration = 180.0;
  TimePoint run_duration = 1500.0;
  Duration appp_period = 10.0;
  Duration infp_period = 120.0;
  // --- dampening ablation (E10) ---
  Duration appp_dwell = 0.0;
  Duration infp_dwell = 0.0;
  // --- staleness (E8) ---
  Duration a2i_delay = 0.0;
  Duration i2a_delay = 0.0;
  // --- export policies (E7 interface-width sweeps) ---
  core::A2IPolicy a2i_policy{};
  core::I2APolicy i2a_policy{};
  /// Warmup before oscillation statistics are counted.
  TimePoint measure_from = 300.0;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
};

struct OscillationResult {
  QoeSummary qoe;
  // --- oscillation statistics (after measure_from) ---
  std::size_t appp_switches = 0;   ///< primary-CDN changes
  std::size_t infp_switches = 0;   ///< X-egress changes
  std::size_t appp_reversals = 0;  ///< A->B->A flips over the full run
  std::size_t infp_reversals = 0;
  bool cycling = false;      ///< joint state entered a repeating cycle
  bool converged = false;    ///< joint state constant over the final epochs
  TimePoint settled_at = 0.0;  ///< last change of either knob
  bool green_path = false;   ///< final state == (primary X, X via C)
  sim::MetricSet metrics;    ///< series: primary_cdn, x_egress, mean_bitrate
};

[[nodiscard]] OscillationResult run_oscillation(const OscillationConfig& config,
                                                const RunContext& ctx = {});

}  // namespace eona::scenarios
