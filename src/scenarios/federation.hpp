// Federated exchange scenario (E19): three AppP tenants x two InfP tenants
// on one brokered interface plane, with one tenant lying for advantage.
//
// Each ISP divides a fixed egress pool across the three CDNs' ingress links
// in proportion to the A2I traffic forecasts it can see (InfPConfig::
// EgressShareConfig). Tenant 0 multiplies every exported forecast by
// `exaggeration` to grab pool share; tenants 1 and 2 report honestly. The
// knob under test is the broker: with `broker` on, the exchange enforces a
// per-tenant egress-share quota (TenantQuota, Exchange::set_egress_reference)
// and clamps the liar's claims before any InfP sees them; with it off, the
// claims pass through untouched and the honest tenants' viewers starve.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"

namespace eona::scenarios {

struct FederationConfig {
  std::uint64_t seed = 1;
  /// Broker quota enforcement: the exchange clamps each tenant's per-ISP
  /// forecast claims to its egress-share quota (1/3 of the pool each).
  bool broker = true;
  /// Tenant 0's forecast multiplier (>1 = misbehaving; honest tenants 1.0).
  double exaggeration = 6.0;
  double arrival_rate = 0.2;  ///< sessions/s per tenant (split across ISPs)
  BitsPerSecond pool = mbps(120);  ///< per-ISP egress pool to divide
  BitsPerSecond access_capacity = mbps(250);  ///< per-ISP shared access link
  Duration video_duration = 120.0;
  TimePoint run_duration = 600.0;
  /// Optional chaos plan (FaultPlan grammar; see scenarios/chaos.hpp).
  /// Empty = no fault injection, byte-identical to the plan-free build.
  std::string faults;
};

struct FederationResult {
  QoeSummary liar;     ///< tenant 0 (the over-reporter)
  QoeSummary victim1;  ///< tenant 1 (honest)
  QoeSummary victim2;  ///< tenant 2 (honest)
  double victim_mean_engagement = 0.0;  ///< mean over the two honest tenants
  double victim_mean_bitrate = 0.0;     ///< bps, mean over honest tenants
  /// Egress-pool fraction each side ended up with (mean over both ISPs).
  double liar_share = 0.0;
  double victim_share = 0.0;  ///< mean over the two honest CDNs
  std::uint64_t clamps = 0;   ///< broker quota-clamp activations
  std::uint64_t rate_limited = 0;    ///< reports dropped by per-leg rate caps
  std::uint64_t epoch_rejected = 0;  ///< publishes fenced by a stale epoch
};

[[nodiscard]] FederationResult run_federation(const FederationConfig& config,
                                              const RunContext& ctx = {});

}  // namespace eona::scenarios
