// The infrastructure provider's control plane (an access ISP).
//
// Owns the ISP-side knobs: per-CDN peering-point selection (traffic
// engineering) -- and publishes the I2A looking glass: peering status,
// congestion attribution, and (when operating CDN infrastructure) server
// hints.
//
//  * Baseline TE  -- network metrics only: flees a hot peering point, and
//    drifts back to the *preferred* (cheap, local) point as soon as it
//    looks idle. Blind to why the load moved -- one half of the Fig 5
//    oscillation.
//  * EONA TE      -- consumes A2I traffic forecasts: picks the peering
//    point that actually fits the application's expected volume, holds it
//    (dampened), and thereby ends the cycle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/cdn.hpp"
#include "control/dampening.hpp"
#include "control/forecaster.hpp"
#include "control/link_monitor.hpp"
#include "control/oscillation.hpp"
#include "eona/exchange.hpp"
#include "eona/messages.hpp"
#include "eona/robust.hpp"
#include "net/network.hpp"
#include "net/peering.hpp"
#include "net/routing.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/column_store.hpp"
#include "telemetry/delivery_health.hpp"

namespace eona::control {

/// Elastic access-capacity provisioning (E16). Disabled by default so every
/// pre-existing configuration is bit-identical. When enabled, the InfP
/// watches each access link's demand and orders capacity in `step`
/// increments up to `max_capacity`; an order takes `lead_time` to land
/// (turning up ports / wavelengths is not instant -- that lead time is
/// exactly what forecasting buys back).
struct ProvisionConfig {
  bool enabled = false;
  /// true: trend per-link demand (Holt linear smoothing over the telemetry
  /// store's link_rate rows) and order ahead of the projected need.
  /// false: reactive -- order only once windowed utilization is already hot.
  bool forecast_driven = false;
  BitsPerSecond step = 0.0;          ///< capacity increment per order
  BitsPerSecond max_capacity = 0.0;  ///< provisioning ceiling
  Duration lead_time = 15.0;         ///< order-to-delivery delay
  double order_utilization = 0.85;   ///< reactive trigger (windowed mean)
  double headroom = 1.15;            ///< provisioned / demand target ratio
  Duration horizon = 30.0;           ///< forecast projection horizon
};

struct InfPConfig {
  Duration control_period = 30.0;
  // --- link monitoring (windowed means; see LinkMonitor) ---
  Duration sample_period = 1.0;
  std::size_t window_samples = 30;
  // --- TE ---
  Duration egress_dwell = 0.0;  ///< dampening on the egress knob
  // --- A2I robustness (§5 graceful degradation) ---
  /// When false, a tick whose A2I fetches all miss clears the forecast view
  /// (EONA TE then holds position for lack of information).
  bool robust_fetch = true;
  /// Retry/backoff + freshness policy for A2I fetches; default = naive.
  core::RetryPolicy a2i_retry{};
  /// Dwell multiplier on every egress knob while all A2I data is stale.
  /// Only active when a2i_retry.freshness_deadline is finite.
  double stale_widening = 2.0;
  // --- elastic capacity provisioning (E16; off by default) ---
  ProvisionConfig provision{};
  ForecastConfig forecast{};  ///< smoothing for the provisioning forecaster
  // --- egress-share division (federation; off by default) ---
  /// When enabled, each control tick divides `pool` of CDN-ingress capacity
  /// across this ISP's peering ingress links, proportional to the per-CDN
  /// A2I traffic forecasts (equal split when no forecasts are visible).
  /// This is the resource a lying tenant can steal by over-reporting -- and
  /// the broker's egress quota clamp is what contains the lie.
  struct EgressShareConfig {
    bool enabled = false;
    BitsPerSecond pool = 0.0;  ///< total ingress capacity to divide
  };
  EgressShareConfig egress_share{};
};

/// ISP control plane; see file header.
class InfPController {
 public:
  InfPController(sim::Scheduler& sched, net::Network& network,
                 const net::Routing& routing, net::PeeringBook& peering,
                 IspId isp, ProviderId self, std::vector<LinkId> access_links,
                 InfPConfig config = {});

  InfPController(const InfPController&) = delete;
  InfPController& operator=(const InfPController&) = delete;
  ~InfPController();

  // --- EONA wiring ---
  /// Bind this controller to its exchange identity. All I2A publishes and
  /// A2I fetches flow through the broker; unbound controllers (bare unit
  /// fixtures) skip publishing and cannot subscribe. Binding also arms the
  /// endpoint's broker re-registration chain (the default ReattachPolicy)
  /// with a seed derived from the tenant identity alone.
  void bind_exchange(core::ExchangeEndpoint port);
  [[nodiscard]] const core::ExchangeEndpoint& port() const { return port_; }
  /// Subscribe to an AppP tenant's A2I leg on the exchange (the broker
  /// holds the bearer token; the leg must have been wired).
  void subscribe_a2i(ProviderId appp);
  /// Drop the subscription to a departing AppP tenant (mid-run churn): its
  /// fetcher dies, its contribution leaves the merged A2I view, and its
  /// fetch counters are folded into the controller's history.
  void unsubscribe_a2i(ProviderId appp) { a2i_.unsubscribe(appp); }

  /// Attach the world's event bus: egress migrations are published with
  /// attributed reasons, each served A2I view as a ReportServedEvent, and
  /// fault events drive on_fault().
  void set_event_bus(sim::EventBus* bus);
  void set_eona_enabled(bool enabled) { eona_enabled_ = enabled; }
  [[nodiscard]] bool eona_enabled() const { return eona_enabled_; }
  /// Combined delivery-health snapshot of the A2I consumption path.
  [[nodiscard]] telemetry::DeliveryHealthSnapshot a2i_health() const {
    return a2i_.health();
  }

  /// CDNs whose servers this InfP operates (emits server hints for them).
  void attach_cdn(const app::Cdn* cdn);

  // --- control loop ---
  void start();
  void stop();
  void tick();

  /// Current I2A report contents (exposed for tests / benches).
  [[nodiscard]] core::I2AReport build_i2a_report() const;

  /// Force a specific egress selection (scenario setup); reroutes live
  /// flows. `reason` labels the MigrationEvent emitted on the bus.
  void select_egress(PeeringId point, const char* reason = "operator");

  /// Decision history of the egress knob for a CDN.
  [[nodiscard]] const DecisionTrace& egress_trace(CdnId cdn) const;

  [[nodiscard]] IspId isp() const { return isp_; }
  [[nodiscard]] ProviderId id() const { return self_; }
  [[nodiscard]] const InfPConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t ticks() const { return tick_count_; }
  [[nodiscard]] std::uint64_t reroutes() const { return reroute_count_; }
  /// Immediate fault-driven egress re-steers (EONA self-healing path).
  [[nodiscard]] std::uint64_t failovers() const { return failover_count_; }

  /// The windowed link statistics the ISP sees (tests introspect it).
  [[nodiscard]] const LinkMonitor& monitor() const { return *monitor_; }

  /// Attach a read-only telemetry store: forecast-driven provisioning then
  /// trends the store's link_rate rows instead of raw instantaneous
  /// utilization. Optional -- provisioning works (coarser) without it.
  void attach_store(const telemetry::ColumnStore* store) { store_ = store; }

  /// The per-link demand forecaster (tests / benches introspect it).
  [[nodiscard]] const Forecaster& forecaster() const { return forecaster_; }
  /// Capacity orders placed by elastic provisioning so far.
  [[nodiscard]] std::uint64_t provision_orders() const {
    return provision_order_count_;
  }

  /// Current share fraction of the egress pool assigned to `cdn`'s ingress
  /// link (0 before the first sharing tick or when sharing is disabled).
  [[nodiscard]] double egress_share_of(CdnId cdn) const {
    auto it = egress_shares_.find(cdn);
    return it == egress_shares_.end() ? 0.0 : it->second;
  }

 private:
  void run_traffic_engineering();
  /// Elastic access-capacity control; see ProvisionConfig.
  void run_provisioning();
  /// Forecast-proportional division of the CDN-ingress pool; see
  /// EgressShareConfig.
  void run_egress_sharing();
  void engineer_cdn(CdnId cdn, const std::vector<PeeringId>& candidates);
  /// Moves live flows from `from`'s ingress link onto paths via `to`;
  /// returns how many flows moved.
  std::size_t migrate_flows(const net::PeeringPoint& from,
                            const net::PeeringPoint& to);
  /// Bus-delivered fault: broker faults are forwarded to the exchange
  /// endpoint (starting its reattach chain); for link faults, clear the
  /// affected monitor window (both modes), and in EONA mode re-steer
  /// sectors off a dead selected peering point immediately instead of
  /// waiting for the next tick.
  void on_fault(const sim::FaultEvent& e);
  /// Best surviving peering point for `cdn`: the preferred point when its
  /// ingress is up, else the first-registered live candidate; invalid id
  /// when every point is dark.
  [[nodiscard]] PeeringId pick_failover_target(CdnId cdn) const;
  [[nodiscard]] double utilization(PeeringId point) const;
  /// Forecast rate the AppPs intend to send us from `cdn` (A2I); nullopt
  /// when no forecast is available.
  [[nodiscard]] std::optional<BitsPerSecond> forecast_for(CdnId cdn) const;

  sim::Scheduler& sched_;
  net::Network& network_;
  const net::Routing& routing_;
  net::PeeringBook& peering_;
  IspId isp_;
  ProviderId self_;
  std::vector<LinkId> access_links_;
  InfPConfig config_;

  core::ExchangeEndpoint port_;
  /// The AppPs' merged A2I view traffic engineering and sharing read.
  core::ReportFeed<core::A2IReport> a2i_;
  sim::EventBus* bus_ = nullptr;

  std::vector<const app::Cdn*> operated_cdns_;
  /// Nominal (healthy) capacity per operated server egress, snapshotted at
  /// attach time for health checking.
  std::map<LinkId, BitsPerSecond> nominal_capacity_;
  bool eona_enabled_ = false;
  std::map<CdnId, DecisionTrace> egress_traces_;
  std::map<CdnId, DwellTimer> egress_dwell_;
  std::map<CdnId, PeeringId> preferred_;  ///< first-registered = cheapest
  std::uint64_t tick_count_ = 0;
  std::uint64_t reroute_count_ = 0;
  std::uint64_t failover_count_ = 0;
  // --- elastic provisioning state ---
  const telemetry::ColumnStore* store_ = nullptr;
  Forecaster forecaster_;
  std::map<LinkId, BitsPerSecond> pending_orders_;  ///< in-flight targets
  std::uint64_t provision_order_count_ = 0;
  std::map<CdnId, double> egress_shares_;  ///< last sharing division
  std::unique_ptr<LinkMonitor> monitor_;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace eona::control
