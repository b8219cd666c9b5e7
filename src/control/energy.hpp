// Server energy management (paper §2 "impacts of configuration changes" and
// §5 InfP control logic): an infrastructure operator powers server clusters
// down off-peak. Without application visibility it steers by load alone --
// and is either too conservative (wasted energy) or too aggressive (QoE
// collapse). With A2I it adds a QoE guardrail: scale down only while client
// experience is healthy, wake servers immediately when it degrades.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/cdn.hpp"
#include "eona/endpoint.hpp"
#include "eona/messages.hpp"
#include "net/network.hpp"
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

  void subscribe_a2i(core::A2IEndpoint* endpoint, std::string token);
  void set_eona_enabled(bool enabled) { eona_enabled_ = enabled; }
  [[nodiscard]] bool eona_enabled() const { return eona_enabled_; }

  void start();
  void stop();
  void tick();

  /// Mean egress utilisation across currently online servers.
  [[nodiscard]] double mean_online_load() const;

  /// Mean A2I-reported buffering ratio for this CDN; nullopt without data.
  [[nodiscard]] std::optional<double> reported_buffering() const;

  /// Session-weighted mean A2I engagement for this CDN; nullopt without data.
  [[nodiscard]] std::optional<double> reported_engagement() const;

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
  void refresh_a2i();
  void shut_down_one();
  void wake_one();
  void record_online();

  sim::Scheduler& sched_;
  net::Network& network_;
  app::Cdn& cdn_;
  ProviderId self_;
  EnergyConfig config_;

  struct A2ISubscription {
    core::A2IEndpoint* endpoint;
    std::string token;
  };
  std::vector<A2ISubscription> subscriptions_;
  std::optional<core::A2IReport> latest_a2i_;
  bool eona_enabled_ = false;

  /// Original egress capacity per server (restored on wake).
  std::vector<BitsPerSecond> saved_capacity_;
  sim::TimeSeries online_series_;
  std::uint64_t shutdowns_ = 0;
  std::uint64_t wakes_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace eona::control
