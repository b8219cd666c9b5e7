// Shared vocabulary for the experiment scenarios: control modes and QoE
// summaries computed from finished sessions. EONA wiring itself lives on
// the brokered exchange (eona/exchange.hpp, World::Builder::wire_tenant).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "app/session_pool.hpp"
#include "common/contracts.hpp"
#include "control/appp.hpp"
#include "control/energy.hpp"
#include "control/infp.hpp"
#include "eona/registry.hpp"

namespace eona::sim {
class TraceWriter;  // sim/trace.hpp
}  // namespace eona::sim

namespace eona::telemetry {
class ColumnStore;  // telemetry/column_store.hpp
}  // namespace eona::telemetry

namespace eona::scenarios {

/// Which control world a scenario runs in.
enum class ControlMode {
  kBaseline,  ///< today's independent, information-starved loops
  kEona,      ///< EONA interfaces wired and consumed
  kOracle,    ///< hypothetical global controller (upper bound)
};

[[nodiscard]] inline const char* to_string(ControlMode mode) {
  switch (mode) {
    case ControlMode::kBaseline: return "baseline";
    case ControlMode::kEona: return "eona";
    case ControlMode::kOracle: return "oracle";
  }
  return "?";
}

/// Run-cost counters a scenario fills in when the caller passes a non-null
/// RunContext::perf (the eona_lab --perf flag). Counters are
/// accumulated (+=) so one RunPerf can span several runs; wall-clock and
/// memory are measured by the caller, keeping scenario output independent
/// of the host machine.
struct RunPerf {
  std::uint64_t events = 0;  ///< scheduler events fired during the run

  // Phase breakdown for barrier-scheduled scenarios (scale). Non-barrier
  // scenarios leave these at zero. Wall-clock phase times are measured
  // inside the run loop (host-dependent), but land only here -- never in
  // the scenario's byte-stable result JSON.
  std::uint64_t barrier_rounds = 0;       ///< coupling rounds executed
  std::uint64_t sectors_dispatched = 0;   ///< sector advances run by the pool
  std::uint64_t sectors_elided = 0;       ///< quiescent sectors skipped
  std::uint64_t parallel_advance_ns = 0;  ///< wall time in sector advances
  std::uint64_t serial_barrier_ns = 0;    ///< wall time in the coordinator

  /// Fraction of phase-accounted wall time spent in the serial coordinator.
  [[nodiscard]] double serial_fraction() const {
    auto total =
        static_cast<double>(parallel_advance_ns + serial_barrier_ns);
    return total > 0.0 ? static_cast<double>(serial_barrier_ns) / total : 0.0;
  }

  // Broker counters (scenarios with an exchange; zero otherwise).
  std::uint64_t clamp_count = 0;     ///< egress-quota clamps at publish
  std::uint64_t rate_limited = 0;    ///< reports dropped by per-leg rate caps
  std::uint64_t epoch_rejected = 0;  ///< publishes fenced by crash/stale epoch

  /// Fold a run's broker counters in (call once per run, post-drain).
  void add_exchange(const core::Exchange& exchange) {
    clamp_count += exchange.clamp_count();
    rate_limited += exchange.total_delivery_stats().rate_limited;
    epoch_rejected += exchange.epoch_rejected();
  }
};

/// What a run reports besides its result, passed once to every run_*
/// function; each pointer may be null. The trace records the run's JSONL
/// event stream (eona_lab --trace), the store ingests the same stream as
/// queryable rows (--store), and perf accumulates the run-cost counters
/// (--perf). None of them changes the result.
struct RunContext {
  sim::TraceWriter* trace = nullptr;
  telemetry::ColumnStore* store = nullptr;
  RunPerf* perf = nullptr;
};

/// Aggregate experience over a set of finished sessions.
struct QoeSummary {
  std::size_t sessions = 0;
  double mean_buffering = 0.0;
  double p90_buffering = 0.0;
  double mean_bitrate = 0.0;   // bps
  double mean_join_time = 0.0;
  double mean_engagement = 0.0;
  std::uint64_t stalls = 0;
  std::uint64_t cdn_switches = 0;
  std::uint64_t server_switches = 0;

  using Sessions = std::vector<app::SessionSummary>;
  struct KeepAll {
    bool operator()(const app::SessionSummary&) const { return true; }
  };

  /// Summarise sessions passing `keep` (default: all).
  template <typename Pred = KeepAll>
  static QoeSummary from(const Sessions& all, Pred keep = {}) {
    const Sessions* one[] = {&all};
    return from_parts(one, keep);
  }

  /// Summarise the sessions of `parts` passing `keep` (default: all), part
  /// by part in order: the same sums in the same order, and the same p90
  /// element, as from() over the parts' concatenation, which is never
  /// built (scale folds its sectors this way).
  template <typename Pred = KeepAll>
  static QoeSummary from_parts(std::span<const Sessions* const> parts,
                               Pred keep = {}) {
    QoeSummary s;
    std::size_t total = 0;
    for (const Sessions* part : parts) total += part->size();
    std::vector<double> buffering;
    buffering.reserve(total);
    for (const Sessions* part : parts)
      for (const auto& session : *part) {
        if (!keep(session)) continue;
        ++s.sessions;
        const auto& m = session.record.metrics;
        s.mean_buffering += m.buffering_ratio;
        s.mean_bitrate += m.avg_bitrate;
        s.mean_join_time += m.join_time;
        s.mean_engagement += m.engagement;
        s.stalls += session.stalls;
        s.cdn_switches += session.cdn_switches;
        s.server_switches += session.server_switches;
        buffering.push_back(m.buffering_ratio);
      }
    if (s.sessions == 0) return s;
    auto n = static_cast<double>(s.sessions);
    s.mean_buffering /= n;
    s.mean_bitrate /= n;
    s.mean_join_time /= n;
    s.mean_engagement /= n;
    // Percentile convention: lower nearest-rank at index floor(0.9*(n-1))
    // of the sorted sample (no interpolation) -- the same element a full
    // sort would select, found in O(n) with nth_element.
    auto rank = static_cast<std::size_t>(
        0.9 * static_cast<double>(buffering.size() - 1));
    EONA_ASSERT(rank < buffering.size());
    std::nth_element(buffering.begin(),
                     buffering.begin() + static_cast<std::ptrdiff_t>(rank),
                     buffering.end());
    s.p90_buffering = buffering[rank];
    return s;
  }
};

}  // namespace eona::scenarios
