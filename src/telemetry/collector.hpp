// Beacon ingestion point: clients report here; registered sinks (group-by
// aggregators, windowed aggregators, experiment recorders) receive each
// record. Mirrors the AppP's collection tier in front of the analytics
// platform.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/contracts.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Fan-out ingestion of session beacons with basic accounting.
class BeaconCollector {
 public:
  using Sink = std::function<void(const SessionRecord&)>;

  /// Register a sink; all subsequent beacons are delivered to it in
  /// registration order.
  void add_sink(Sink sink) {
    EONA_EXPECTS(sink != nullptr);
    sinks_.push_back(std::move(sink));
  }

  /// Ingest one beacon.
  void report(const SessionRecord& record) {
    ++beacons_;
    bits_reported_ += record.metrics.bytes_delivered;
    for (const auto& sink : sinks_) sink(record);
  }

  [[nodiscard]] std::uint64_t beacon_count() const { return beacons_; }
  [[nodiscard]] double total_bits_reported() const { return bits_reported_; }

 private:
  std::vector<Sink> sinks_;
  std::uint64_t beacons_ = 0;
  double bits_reported_ = 0.0;
};

}  // namespace eona::telemetry
