// §4 peering-failure scenario: a chaos-injected interconnect outage, and
// how fast each control world restores QoE.
//
// One ISP peers with CDN X at a cheap local point B and at an IXP C (both
// sized for the load); CDN Y hangs off C as the trial-and-error escape
// hatch -- deliberately undersized, the way a backup transit path usually
// is. All sessions start on X via B. At outage_start the chaos engine takes
// the X@B interconnect down.
//
// Baseline (siloed): the data plane strands every flow on the dead link and
// aborts the in-flight fetches; players discover the failure one connection
// error at a time, pay retry backoff plus a reconnect, and trial-and-error
// their way to CDN Y -- where the undersized escape hatch congests and the
// herd rebuffers. The ISP's windowed monitor sees a *dead-quiet* link
// (utilisation 0), so its flee-the-heat TE never fires -- nobody in the
// siloed world can say "the interconnect is gone", only "my session
// stalled".
//
// EONA: the InfP learns of the fault from the event bus, immediately
// re-steers X's sector to the surviving point C -- migrating the live flows
// before the stranded-transfer sweep can abort them -- and publishes an
// out-of-band I2A update whose peering status and server hints reflect the
// outage, so AppP players re-select with information instead of retries.
//
// Reported: rebuffer-seconds (stalled-player-seconds after the outage) and
// time-to-recovery (when the last player unstalls), the two §4 recovery
// metrics bench_sec4_failover sweeps across seeds.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "scenarios/common.hpp"
#include "sim/timeseries.hpp"

namespace eona::scenarios {

struct FailoverConfig {
  std::uint64_t seed = 1;
  ControlMode mode = ControlMode::kBaseline;
  BitsPerSecond capacity_b = mbps(300);   ///< X at local point B (preferred)
  BitsPerSecond capacity_cx = mbps(300);  ///< X at the IXP C (survivor)
  /// Y at the IXP C. Deliberately undersized relative to the steady-state
  /// offered load (~50 concurrent sessions): the siloed world's only escape
  /// route congests under the failover herd, while EONA re-steers onto X's
  /// full-size surviving interconnect at C.
  BitsPerSecond capacity_cy = mbps(60);
  double arrival_rate = 0.4;              ///< sessions/s
  Duration video_duration = 120.0;
  TimePoint run_duration = 360.0;
  TimePoint outage_start = 120.0;
  /// 0 = the link stays down for the rest of the run.
  Duration outage_duration = 0.0;
  Duration appp_period = 10.0;
  Duration infp_period = 30.0;
  /// Custom fault plan (compact text form, see scenarios/chaos.hpp). Empty =
  /// the default single peering outage built from outage_start/duration.
  std::string faults;
};

struct FailoverResult {
  QoeSummary qoe;
  // --- §4 recovery metrics (measured from outage_start) ---
  /// Integral of stalled-player count over time after the outage [s].
  double rebuffer_seconds = 0.0;
  /// Time from the outage until the last stalled player resumed; 0 when no
  /// player ever stalled, run-end minus outage when stalls never cleared.
  Duration time_to_recovery = 0.0;
  // --- chaos / failure accounting ---
  std::uint64_t faults = 0;              ///< chaos actions executed
  std::uint64_t aborted_transfers = 0;   ///< data-plane fetch aborts
  std::uint64_t stranded_sessions = 0;   ///< SessionStrandedEvent count
  std::uint64_t resumed_sessions = 0;    ///< SessionResumedEvent count
  std::uint64_t infp_failovers = 0;      ///< fault-driven egress re-steers
  std::uint64_t auditor_checks = 0;      ///< invariant sweeps performed
  sim::MetricSet metrics;  ///< series: stalled, stranded, active
};

[[nodiscard]] FailoverResult run_failover(const FailoverConfig& config,
                                          const RunContext& ctx = {});

}  // namespace eona::scenarios
