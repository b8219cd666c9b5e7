// Broker survivability scenario (E20): the federation plane (two access
// ISPs x three AppP tenants, egress pool divided by A2I forecasts, tenant 0
// over-reporting against a broker quota) -- but the broker itself is mortal.
//
// A chaos plan crashes the exchange mid-run and restarts it later. The
// crash bumps the broker epoch: every bearer token goes stale, publishes
// are fenced (counted as epoch_rejected), fetches answer nothing. The knob
// under test is how tenants ride out the outage:
//
//  * degraded=true  -- EONA degraded mode: robust fetchers keep serving
//    last-known-good A2I/I2A data (stale-aware), so the ISPs' egress shares
//    hold their informed split while the broker is down, and the armed
//    ExchangeEndpoints re-register on a seeded jittered backoff the moment
//    the broker returns.
//  * degraded=false -- block-on-broker baseline: a tick whose fetches miss
//    clears the view, so every ISP falls back to an equal egress split.
//    The heavy tenant's share collapses mid-stream and its viewers pay in
//    rebuffer-seconds until the broker returns and forecasts reappear.
//
// After the restart the scenario also churns tenancy mid-run: a fourth
// AppP joins (quota shares renormalize to keep summing to 1), and tenant 2
// unwires from ISP 1. The InvariantAuditor re-checks the exchange
// invariants at every transition, and the E19 containment story must hold
// across the outage: the liar's share stays clamped after re-registration.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"

namespace eona::scenarios {

struct BrokerOutageConfig {
  std::uint64_t seed = 1;
  /// EONA degraded mode (robust last-known-good fetches) vs the naive
  /// block-on-broker baseline (view clears while the broker is down).
  bool degraded = true;
  /// Tenant 0's forecast multiplier (the E19 liar; containment must
  /// survive the broker restart).
  double exaggeration = 6.0;
  double arrival_rate = 0.1;        ///< sessions/s, honest tenants 0 and 2
  /// Sessions/s for tenant 1 (the dip probe). Sized so the tenant's
  /// steady concurrency can ride the informed egress share (quota 0.6) but
  /// NOT the equal-split fallback -- the naive arm's collapse leaves less
  /// than the bottom ladder rung per viewer, so it stalls for the whole
  /// outage instead of adapting its way out.
  double heavy_arrival_rate = 2.5;
  BitsPerSecond pool = mbps(120);   ///< per-ISP egress pool to divide
  BitsPerSecond access_capacity = mbps(250);
  Duration video_duration = 120.0;
  TimePoint run_duration = 600.0;
  // --- broker outage window (used when `faults` is empty) ---
  TimePoint crash_at = 180.0;
  TimePoint restart_at = 300.0;
  /// Optional explicit chaos plan (FaultPlan grammar, e.g.
  /// "crash:exchange@180; restart:exchange@300"); overrides the knobs above.
  std::string faults;
  // --- mid-run tenant churn (0 disables either event) ---
  TimePoint churn_join_at = 390.0;   ///< fourth AppP registers + wires
  TimePoint churn_leave_at = 480.0;  ///< tenant 2 unwires from ISP 1
};

struct BrokerOutageResult {
  QoeSummary qoe;     ///< tenants 0-2 pooled (the pre-outage population)
  QoeSummary heavy;   ///< tenant 1 alone (who the naive fallback starves)
  QoeSummary joiner;  ///< the churned-in tenant (zero when churn disabled)
  /// Integral of the stalled-player count (1 Hz samples) from crash_at on.
  double rebuffer_seconds = 0.0;
  /// Slowest tenant's restart -> reattached latency (0 when none detached);
  /// must stay within `reattach_horizon`.
  double time_to_reattach = 0.0;
  Duration reattach_horizon = 0.0;  ///< ReattachPolicy::horizon() bound
  std::uint64_t reattaches = 0;         ///< successful re-registrations
  std::uint64_t reattach_attempts = 0;  ///< including rejected tries
  Duration detached_seconds = 0.0;      ///< worst per-tenant detached time
  std::uint64_t epoch_rejected = 0;  ///< publishes fenced by the dead broker
  std::uint64_t clamps = 0;          ///< quota clamps (E19 containment)
  std::uint64_t rate_limited = 0;    ///< per-leg rate-cap drops, summed
  /// Tenant 0's egress share (mean of ISPs) probed 80 s after the restart
  /// -- after every tenant reattached and the InfPs re-ran their sharing
  /// ticks, before churn muddies the denominator. Containment across the
  /// outage = this stays at the liar's quota, not at its claims.
  double liar_share = 0.0;
  std::uint64_t faults = 0;            ///< chaos actions executed
  std::uint64_t exchange_checks = 0;   ///< auditor broker-invariant sweeps
  std::uint64_t auditor_checks = 0;    ///< conservation sweeps
};

[[nodiscard]] BrokerOutageResult
run_broker_outage(const BrokerOutageConfig& config,
                  const RunContext& ctx = {});

}  // namespace eona::scenarios
