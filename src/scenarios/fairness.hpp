// §5 "fairness and trust" scenario: one InfP serving two AppPs.
//
// Two video AppPs (one large, one small) share the Fig 5 world: both use
// CDNs X and Y, and the ISP picks X's ingress point once for everyone. The
// ISP merges whatever A2I it receives; its single egress knob affects both
// tenants. Questions the paper raises:
//   * fairness -- when both participate, does the small AppP get the same
//     experience as the large one?
//   * partial deployment -- when only one AppP participates, does the
//     non-participant get hurt, or does it free-ride on the fixed
//     interconnect while still burning its own trial-and-error switches?
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"

namespace eona::scenarios {

struct FairnessConfig {
  std::uint64_t seed = 1;
  bool appp1_eona = false;  ///< the large AppP participates in EONA
  bool appp2_eona = false;  ///< the small AppP participates in EONA
  double rate1 = 0.18;      ///< large AppP arrivals/s
  double rate2 = 0.07;      ///< small AppP arrivals/s
  BitsPerSecond capacity_b = mbps(45);
  BitsPerSecond capacity_cx = mbps(400);
  BitsPerSecond capacity_cy = mbps(50);
  Duration video_duration = 180.0;
  TimePoint run_duration = 1200.0;
  TimePoint measure_from = 300.0;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
};

struct FairnessResult {
  QoeSummary appp1;
  QoeSummary appp2;
  /// |engagement(1) - engagement(2)|: the fairness gap between tenants.
  double engagement_gap = 0.0;
  std::size_t isp_switches = 0;  ///< X-egress changes in the window
  bool green_path = false;       ///< X enters via the IXP at window end
};

[[nodiscard]] FairnessResult run_fairness(const FairnessConfig& config,
                                          const RunContext& ctx = {});

}  // namespace eona::scenarios
