// EONA message schema: what actually crosses the A2I and I2A interfaces.
//
// Deliberately narrow, following the paper's §4 recipe: aggregated QoE per
// (ISP, CDN) group and traffic forecasts flow App->Infra; peering status,
// server hints, and congestion attributions flow Infra->App. No per-user
// data, no topology dumps, no TE policy internals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace eona::core {

// ---------------------------------------------------------------------------
// A2I: application provider -> infrastructure provider
// ---------------------------------------------------------------------------

/// Aggregated client-measured experience for one (ISP, CDN[, server]) group
/// over the report window. Means and percentiles only -- k-anonymity gated
/// before export.
struct QoeGroupReport {
  IspId isp;
  CdnId cdn;
  ServerId server;  ///< invalid when aggregated across servers
  double mean_buffering_ratio = 0.0;
  double p90_buffering_ratio = 0.0;
  BitsPerSecond mean_bitrate = 0.0;
  Duration mean_join_time = 0.0;
  double mean_engagement = 0.0;
  std::uint64_t sessions = 0;

  friend bool operator==(const QoeGroupReport&, const QoeGroupReport&) = default;
};

/// Expected near-term traffic volume the AppP intends to send through the
/// ISP from each CDN -- the input the InfP needs to size peering splits.
struct TrafficForecast {
  IspId isp;
  CdnId cdn;
  BitsPerSecond expected_rate = 0.0;

  friend bool operator==(const TrafficForecast&, const TrafficForecast&) = default;
};

/// One A2I report: everything an AppP shares with one InfP per window.
struct A2IReport {
  ProviderId from;
  TimePoint generated_at = 0.0;
  std::vector<QoeGroupReport> groups;
  std::vector<TrafficForecast> forecasts;

  friend bool operator==(const A2IReport&, const A2IReport&) = default;
};

/// Total forecast rate the report claims toward `isp` (forecasts with an
/// invalid ISP are global and count toward every ISP). The broker's egress
/// quota clamp and the InfP's egress sharing both consume this.
[[nodiscard]] inline BitsPerSecond total_forecast_rate(const A2IReport& report,
                                                       IspId isp) {
  BitsPerSecond total = 0.0;
  for (const TrafficForecast& f : report.forecasts)
    if (!f.isp.valid() || !isp.valid() || f.isp == isp)
      total += f.expected_rate;
  return total;
}

/// Fold another AppP's report into a consumer's merged A2I view.
inline void merge(A2IReport& into, const A2IReport& from) {
  into.generated_at = std::max(into.generated_at, from.generated_at);
  into.groups.insert(into.groups.end(), from.groups.begin(), from.groups.end());
  into.forecasts.insert(into.forecasts.end(), from.forecasts.begin(),
                        from.forecasts.end());
}

// ---------------------------------------------------------------------------
// I2A: infrastructure provider -> application provider
// ---------------------------------------------------------------------------

/// State of one peering point: enough for the AppP to attribute problems to
/// interconnects (not CDNs) and balance load, without exposing topology.
struct PeeringStatus {
  PeeringId peering;
  IspId isp;
  CdnId cdn;
  BitsPerSecond capacity = 0.0;
  double utilization = 0.0;  ///< 0..1
  bool congested = false;
  bool selected = false;  ///< is this the ISP's current choice for the CDN

  friend bool operator==(const PeeringStatus&, const PeeringStatus&) = default;
};

/// Hint about an individual CDN server: load and availability, so players
/// can switch servers inside a CDN instead of abandoning the CDN.
struct ServerHint {
  CdnId cdn;
  ServerId server;
  double load = 0.0;  ///< utilisation of the server's serving capacity, 0..1
  bool online = true;

  friend bool operator==(const ServerHint&, const ServerHint&) = default;
};

/// Where congestion is, as an attribution the application can act on.
enum class CongestionScope : std::uint8_t {
  kAccess = 0,   ///< the ISP's client access segment: no CDN switch will help
  kPeering = 1,  ///< a specific interconnect: reroute or rebalance helps
  kBackbone = 2,
};

struct CongestionSignal {
  IspId isp;
  CongestionScope scope = CongestionScope::kAccess;
  PeeringId peering;   ///< valid when scope == kPeering
  double severity = 0.0;  ///< 0 (none) .. 1 (hard-starved)

  friend bool operator==(const CongestionSignal&, const CongestionSignal&) = default;
};

/// One I2A report: everything an InfP shares with one AppP per window.
struct I2AReport {
  ProviderId from;
  TimePoint generated_at = 0.0;
  std::vector<PeeringStatus> peerings;
  std::vector<ServerHint> server_hints;
  std::vector<CongestionSignal> congestion;

  friend bool operator==(const I2AReport&, const I2AReport&) = default;
};

/// Fold another InfP's report into a consumer's merged I2A view.
inline void merge(I2AReport& into, const I2AReport& from) {
  into.generated_at = std::max(into.generated_at, from.generated_at);
  into.peerings.insert(into.peerings.end(), from.peerings.begin(),
                       from.peerings.end());
  into.server_hints.insert(into.server_hints.end(), from.server_hints.begin(),
                           from.server_hints.end());
  into.congestion.insert(into.congestion.end(), from.congestion.begin(),
                         from.congestion.end());
}

}  // namespace eona::core
