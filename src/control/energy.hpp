// Server energy management (paper §2 "impacts of configuration changes" and
// §5 InfP control logic): an infrastructure operator powers server clusters
// down off-peak. Without application visibility it steers by load alone --
// and is either too conservative (wasted energy) or too aggressive (QoE
// collapse). With A2I it adds a QoE guardrail: scale down only while client
// experience is healthy, wake servers immediately when it degrades. It
// reads A2I as an InfP tenant of the exchange, like any other consumer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "app/cdn.hpp"
#include "eona/exchange.hpp"
#include "eona/messages.hpp"
#include "eona/robust.hpp"
#include "net/network.hpp"
#include "sim/event_bus.hpp"
#include "sim/scheduler.hpp"
#include "sim/timeseries.hpp"

namespace eona::control {

struct EnergyConfig {
  Duration control_period = 60.0;
  double scale_down_load = 0.40;  ///< mean online-server load below: -1 server
  double scale_up_load = 0.80;    ///< above: +1 server
};

/// Energy controller for one CDN's server fleet.
class EnergyManager {
 public:
  EnergyManager(sim::Scheduler& sched, net::Network& network, app::Cdn& cdn,
                ProviderId self, EnergyConfig config = {});

  EnergyManager(const EnergyManager&) = delete;
  EnergyManager& operator=(const EnergyManager&) = delete;
  ~EnergyManager();

  /// Bind this manager to its exchange identity and arm the endpoint's
  /// broker re-registration chain, as the AppP and InfP controllers do.
  void bind_exchange(core::ExchangeEndpoint port);
  [[nodiscard]] const core::ExchangeEndpoint& port() const { return port_; }
  /// Read an AppP tenant's A2I leg (wired on the exchange) each tick.
  void subscribe_a2i(ProviderId appp);
  /// Forward broker FaultEvents on `bus` to the exchange endpoint, so a
  /// crash starts its reattach chain. The manager's A2I reads are not
  /// published on the bus.
  void set_event_bus(sim::EventBus* bus);
  void set_eona_enabled(bool enabled) { eona_enabled_ = enabled; }
  [[nodiscard]] bool eona_enabled() const { return eona_enabled_; }

  void start();
  void stop();
  void tick();

  /// Mean egress utilisation across currently online servers.
  [[nodiscard]] double mean_online_load() const;

  /// Session-weighted mean of one A2I group metric (buffering ratio,
  /// engagement) over this CDN's CDN-level groups in the merged view of
  /// every subscribed AppP; nullopt without data.
  [[nodiscard]] std::optional<double> reported(
      double core::QoeGroupReport::*metric) const;

  /// Time series of the online-server count (energy = its time integral).
  [[nodiscard]] const sim::TimeSeries& online_series() const {
    return online_series_;
  }

  /// Server-seconds of energy saved vs all-on, up to `now`.
  [[nodiscard]] double server_seconds_saved(TimePoint now) const;

  [[nodiscard]] std::uint64_t shutdowns() const { return shutdowns_; }
  [[nodiscard]] std::uint64_t wakes() const { return wakes_; }
  [[nodiscard]] ProviderId id() const { return self_; }

 private:
  void shut_down_one();
  void wake_one();
  void record_online();

  sim::Scheduler& sched_;
  net::Network& network_;
  app::Cdn& cdn_;
  ProviderId self_;
  EnergyConfig config_;

  core::ExchangeEndpoint port_;
  core::ReportFeed<core::A2IReport> a2i_;
  bool eona_enabled_ = false;

  /// Original egress capacity per server (restored on wake).
  std::vector<BitsPerSecond> saved_capacity_;
  sim::TimeSeries online_series_;
  std::uint64_t shutdowns_ = 0;
  std::uint64_t wakes_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace eona::control
