// Delivery-health telemetry for the failable EONA control plane: counters
// for the producer side (publish/deliver/drop/duplicate, from the channel)
// and the consumer side (fetch attempts/retries/hits/misses/stale serves,
// from the robust fetcher), plus a streaming staleness quantile.
//
// Each controller's core::ReportFeed owns one accumulator and exposes
// snapshots; the lab tool and the fault-tolerance bench print them.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "telemetry/p2_quantile.hpp"

namespace eona::telemetry {

/// Plain-value snapshot: trivially comparable and JSON-serialisable.
struct DeliveryHealthSnapshot {
  // Producer side (summed over the peer channels feeding this consumer).
  std::uint64_t publishes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  // Consumer side.
  std::uint64_t fetch_attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t fresh_hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_serves = 0;  ///< control epochs served last-known-good
  double staleness_p90 = 0.0;      ///< p90 age of served reports (seconds)

  friend bool operator==(const DeliveryHealthSnapshot&,
                         const DeliveryHealthSnapshot&) = default;
};

/// Accumulator a controller feeds each control epoch.
class DeliveryHealth {
 public:
  /// Record the age of the report served to the control logic this epoch,
  /// and whether it was past the freshness deadline (a stale serve).
  void observe_serve(Duration age, bool stale) {
    staleness_.add(age);
    if (stale) ++stale_serves_;
  }

  [[nodiscard]] std::uint64_t stale_serves() const { return stale_serves_; }

  [[nodiscard]] double staleness_p90() const {
    return staleness_.empty() ? 0.0 : staleness_.value();
  }

  [[nodiscard]] DeliveryHealthSnapshot snapshot() const {
    DeliveryHealthSnapshot s;
    s.stale_serves = stale_serves_;
    s.staleness_p90 = staleness_p90();
    return s;
  }

 private:
  P2Quantile staleness_{0.9};
  std::uint64_t stale_serves_ = 0;
};

}  // namespace eona::telemetry
