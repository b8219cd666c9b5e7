// The application provider's control plane.
//
// Owns the telemetry pipeline (collector -> windowed group-by), the A2I
// looking glass it serves to InfPs, the subscription to InfPs' I2A looking
// glasses, and the two player brains:
//
//  * BaselineBrain -- today's world: rate-based ABR plus trial-and-error
//    whole-CDN switching after stalls; no network visibility.
//  * EonaBrain     -- same mechanics, but consuming I2A: congestion
//    attributed to the access network suppresses CDN switching and caps the
//    bitrate instead (Fig 3); server hints enable intra-CDN server switches
//    (§2 coarse control); peering status steers CDN choice (Fig 5).
//
// The controller also maintains the session-granularity knob the paper's
// Fig 5 story needs: the *primary CDN* new sessions are steered to.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/cdn.hpp"
#include "app/video_player.hpp"
#include "control/dampening.hpp"
#include "control/oscillation.hpp"
#include "eona/exchange.hpp"
#include "eona/messages.hpp"
#include "eona/robust.hpp"
#include "net/network.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/delivery_health.hpp"

namespace eona::control {

struct AppPConfig {
  Duration control_period = 10.0;
  Duration qoe_window = 60.0;
  // --- switching ---
  std::uint64_t stalls_before_switch = 1;
  /// Baseline players also abandon an endpoint when sustained throughput
  /// cannot carry this rung of the ladder (Liu et al. 2012's CDN-switching
  /// players). 0 disables. EONA gates this on congestion attribution.
  std::size_t poor_throughput_rung = 1;
  // --- primary-CDN (Fig 5) ---
  double bad_qoe_buffering = 0.10;  ///< window mean buffering forcing switch
  BitsPerSecond bad_qoe_bitrate = 0.0;  ///< window mean bitrate below this is
                                        ///< also "bad QoE" (0 disables)
  Duration primary_dwell = 0.0;     ///< optional dampening on the knob
  // --- A2I export ---
  /// Per-session rate the AppP *intends* to deliver (the paper's "traffic
  /// intended to different CDNs"). When > 0, forecasts report
  /// active-session-count * intended_bitrate rather than the (possibly
  /// already-degraded) measured volume. 0 = report measured volume.
  BitsPerSecond intended_bitrate = 0.0;
  /// Multiplier on every exported traffic forecast: a misbehaving tenant
  /// over-reports its QoE pain to grab egress share on the exchange
  /// (federation scenario). 1.0 = honest, byte-identical.
  double forecast_exaggeration = 1.0;
  // --- I2A robustness (§5 graceful degradation) ---
  /// When false, a control tick whose fetches all miss *clears* the I2A view
  /// (the naive consumer trusts only what it just read) -- the fragile mode
  /// the fault-tolerance bench contrasts against.
  bool robust_fetch = true;
  /// Retry/backoff + freshness policy for I2A fetches. The default (no
  /// retries, infinite freshness) reproduces the plain one-fetch-per-tick
  /// behaviour exactly.
  core::RetryPolicy i2a_retry{};
  /// While every I2A subscription is stale (per the freshness deadline), the
  /// primary-CDN dwell is multiplied by this factor: with degraded
  /// information the controller acts more conservatively. Only active when
  /// i2a_retry.freshness_deadline is finite.
  double stale_widening = 2.0;
};

/// AppP control plane; see file header.
class AppPController {
 public:
  AppPController(sim::Scheduler& sched, net::Network& network,
                 const app::CdnDirectory& cdns, ProviderId self,
                 AppPConfig config = {});

  AppPController(const AppPController&) = delete;
  AppPController& operator=(const AppPController&) = delete;
  ~AppPController();

  // --- telemetry in ---
  [[nodiscard]] telemetry::BeaconCollector& collector() { return collector_; }

  // --- EONA wiring ---
  /// Bind this controller to its exchange identity. All A2I publishes and
  /// I2A fetches flow through the broker; unbound controllers (bare unit
  /// fixtures) skip publishing and cannot subscribe. Binding also arms the
  /// endpoint's broker re-registration chain (the default ReattachPolicy)
  /// with a seed derived from the tenant identity alone.
  void bind_exchange(core::ExchangeEndpoint port);
  [[nodiscard]] const core::ExchangeEndpoint& port() const { return port_; }
  /// Subscribe to an InfP tenant's I2A leg on the exchange (the broker
  /// holds the bearer token; the leg must have been wired).
  void subscribe_i2a(ProviderId infp);
  /// Drop the subscription to a departing InfP tenant (mid-run churn): its
  /// fetcher dies, its contribution leaves the merged I2A view, and its
  /// fetch counters are folded into the controller's history.
  void unsubscribe_i2a(ProviderId infp) { i2a_.unsubscribe(infp); }

  /// Attach the world's event bus: steering decisions are published with
  /// attributed reasons, each served I2A view as a ReportServedEvent, and
  /// broker FaultEvents are forwarded to the exchange endpoint so a crash
  /// starts its reattach chain immediately.
  void set_event_bus(sim::EventBus* bus);
  void set_eona_enabled(bool enabled) { eona_enabled_ = enabled; }
  [[nodiscard]] bool eona_enabled() const { return eona_enabled_; }

  /// Combined delivery-health snapshot of the I2A consumption path:
  /// producer-side channel counters + fetch counters + staleness quantile.
  [[nodiscard]] telemetry::DeliveryHealthSnapshot i2a_health() const {
    return i2a_.health();
  }

  // --- brains ---
  [[nodiscard]] app::PlayerBrain& brain();  ///< active per eona_enabled()
  [[nodiscard]] app::PlayerBrain& baseline_brain();
  [[nodiscard]] app::PlayerBrain& eona_brain();

  // --- control loop ---
  /// Begin periodic control (publish A2I, refresh I2A, steer primary CDN).
  void start();
  void stop();
  /// One control epoch, callable directly by tests.
  void tick();

  /// The CDN new sessions are steered to.
  [[nodiscard]] CdnId primary_cdn() const { return primary_cdn_; }
  /// `reason` labels the SteeringEvent emitted on the bus (if attached).
  void set_primary_cdn(CdnId cdn, const char* reason = "operator");

  /// Round-robin successor in directory order (baseline switching order).
  [[nodiscard]] CdnId next_cdn_after(CdnId current) const;

  /// Decision history of the primary-CDN knob (oscillation analysis).
  [[nodiscard]] const DecisionTrace& primary_trace() const {
    return primary_trace_;
  }

  /// Builds the current A2I report from the windowed aggregates (exposed
  /// for tests and the interface-width experiment).
  [[nodiscard]] core::A2IReport build_a2i_report() const;

  [[nodiscard]] const AppPConfig& config() const { return config_; }
  [[nodiscard]] ProviderId id() const { return self_; }
  [[nodiscard]] std::uint64_t ticks() const { return tick_count_; }

 private:
  class BaselineBrain;
  class EonaBrain;

  /// Mirror this tick's exported A2I tuples onto the bus (one event per
  /// QoE group / forecast tuple) for traces and the telemetry store.
  void publish_a2i_samples(const core::A2IReport& report);
  /// Publish a held (suppressed) steering decision.
  void hold_primary_cdn(const char* reason);
  /// Consumes the tick's already-built A2I report (forecast headroom check)
  /// instead of rebuilding it.
  void steer_primary_cdn(const core::A2IReport& report);
  /// Is the primary CDN's windowed QoE below the acceptability bar?
  [[nodiscard]] bool primary_qoe_bad() const;

  sim::Scheduler& sched_;
  net::Network& network_;
  const app::CdnDirectory& cdns_;
  ProviderId self_;
  AppPConfig config_;

  telemetry::BeaconCollector collector_;
  telemetry::WindowedAggregator by_isp_cdn_;
  telemetry::WindowedAggregator by_isp_cdn_server_;

  core::ExchangeEndpoint port_;
  /// The InfPs' merged I2A view the brains and the steering read.
  core::ReportFeed<core::I2AReport> i2a_;
  sim::EventBus* bus_ = nullptr;

  bool eona_enabled_ = false;
  CdnId primary_cdn_;
  DecisionTrace primary_trace_;
  DwellTimer primary_dwell_;
  std::uint64_t tick_count_ = 0;

  std::unique_ptr<BaselineBrain> baseline_brain_;
  std::unique_ptr<EonaBrain> eona_brain_;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace eona::control
