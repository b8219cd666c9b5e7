#include "control/energy.hpp"

#include <algorithm>
#include <cstring>

namespace eona::control {

namespace {

constexpr std::size_t kMinOnline = 1;
// --- EONA guardrail ---
/// A2I mean buffering above this wakes a server and holds.
constexpr double kQoeBufferingLimit = 0.05;
/// A2I mean engagement below this wakes a server and pauses shedding;
/// shedding requires engagement at least `floor + headroom`. Engagement is
/// the composite experience measure, so bitrate collapse (which adaptive
/// players suffer *instead of* buffering) is caught too.
constexpr double kQoeEngagementFloor = 0.90;
constexpr double kQoeEngagementHeadroom = 0.02;

}  // namespace

EnergyManager::EnergyManager(sim::Scheduler& sched, net::Network& network,
                             app::Cdn& cdn, ProviderId self,
                             EnergyConfig config)
    : sched_(sched),
      network_(network),
      cdn_(cdn),
      self_(self),
      config_(config),
      a2i_(sched, self, "a2i", /*robust=*/true, core::RetryPolicy{},
           /*seed_salt=*/0x94D049BB133111EBull,
           [this](ProviderId appp, TimePoint now) {
             return port_.fetch_a2i(appp, now);
           },
           [this](ProviderId appp) -> const core::ChannelStats& {
             return port_.a2i_leg_stats(appp);
           }) {
  EONA_EXPECTS(config_.scale_down_load < config_.scale_up_load);
  saved_capacity_.reserve(cdn_.server_count());
  for (const auto& server : cdn_.servers())
    saved_capacity_.push_back(network_.link_capacity(server.egress));
  record_online();
}

EnergyManager::~EnergyManager() = default;

void EnergyManager::bind_exchange(core::ExchangeEndpoint port) {
  port_ = port;
  if (port_.bound())
    port_.arm_reattach(sched_,
                       sim::splitmix64(self_.value() ^ 0xBF58476D1CE4E5B9ull));
}

void EnergyManager::subscribe_a2i(ProviderId appp) {
  EONA_EXPECTS(port_.bound());
  a2i_.subscribe(appp);
}

void EnergyManager::set_event_bus(sim::EventBus* bus) {
  if (bus == nullptr) return;
  bus->subscribe<sim::FaultEvent>([this](const sim::FaultEvent& e) {
    if (std::strcmp(e.kind, "exchange_crash") == 0 ||
        std::strcmp(e.kind, "exchange_restart") == 0)
      port_.on_broker_fault(e.kind, e.t);
  });
}

void EnergyManager::start() {
  EONA_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(sched_, config_.control_period,
                                              [this] { tick(); });
}

void EnergyManager::stop() { task_.reset(); }

std::optional<double> EnergyManager::reported(
    double core::QoeGroupReport::*metric) const {
  const std::optional<core::A2IReport>& view = a2i_.view();
  if (!view) return std::nullopt;
  double weighted = 0.0;
  std::uint64_t sessions = 0;
  for (const auto& g : view->groups) {
    if (g.cdn != cdn_.id()) continue;
    if (g.server.valid()) continue;  // use CDN-level groups only
    weighted += g.*metric * static_cast<double>(g.sessions);
    sessions += g.sessions;
  }
  if (sessions == 0) return std::nullopt;
  return weighted / static_cast<double>(sessions);
}

double EnergyManager::mean_online_load() const {
  double total = 0.0;
  std::size_t online = 0;
  for (const auto& server : cdn_.servers()) {
    if (!server.online) continue;
    total += network_.link_utilization(server.egress);
    ++online;
  }
  return online == 0 ? 0.0 : total / static_cast<double>(online);
}

void EnergyManager::tick() {
  a2i_.refresh();
  double load = mean_online_load();

  if (eona_enabled_) {
    auto buffering = reported(&core::QoeGroupReport::mean_buffering_ratio);
    auto engagement = reported(&core::QoeGroupReport::mean_engagement);
    // Guardrail first: measured experience trumps load heuristics.
    bool qoe_bad =
        (buffering && *buffering > kQoeBufferingLimit) ||
        (engagement && *engagement < kQoeEngagementFloor);
    if (qoe_bad) {
      wake_one();
      return;
    }
    bool qoe_comfortable =
        (!buffering || *buffering <= kQoeBufferingLimit * 0.5) &&
        (!engagement ||
         *engagement >= kQoeEngagementFloor + kQoeEngagementHeadroom);
    if (load >= config_.scale_up_load) {
      wake_one();
    } else if (load <= config_.scale_down_load && qoe_comfortable) {
      // Only shed capacity while experience is comfortably healthy.
      shut_down_one();
    }
    return;
  }

  // Baseline: load thresholds alone.
  if (load >= config_.scale_up_load)
    wake_one();
  else if (load <= config_.scale_down_load)
    shut_down_one();
}

void EnergyManager::shut_down_one() {
  if (cdn_.online_count() <= kMinOnline) return;
  // Shed the most lightly loaded online server (its sessions suffer least).
  ServerId victim;
  double victim_load = 0.0;
  for (const auto& server : cdn_.servers()) {
    if (!server.online) continue;
    double load = network_.link_utilization(server.egress);
    if (!victim.valid() || load < victim_load) {
      victim = server.id;
      victim_load = load;
    }
  }
  if (!victim.valid()) return;
  cdn_.set_online(victim, false);
  // Powering off forfeits the server's RAM cache: when it wakes it serves
  // misses through the origin until it re-warms -- a QoE cost invisible to
  // the egress-load metric this controller steers by.
  cdn_.clear_cache(victim);
  network_.set_link_capacity(cdn_.server(victim).egress, 0.0);
  ++shutdowns_;
  record_online();
}

void EnergyManager::wake_one() {
  ServerId sleeper;
  for (const auto& server : cdn_.servers()) {
    if (!server.online) {
      sleeper = server.id;
      break;
    }
  }
  if (!sleeper.valid()) return;
  cdn_.set_online(sleeper, true);
  network_.set_link_capacity(cdn_.server(sleeper).egress,
                             saved_capacity_[sleeper.value()]);
  ++wakes_;
  record_online();
}

void EnergyManager::record_online() {
  online_series_.record(sched_.now(),
                        static_cast<double>(cdn_.online_count()));
}

double EnergyManager::server_seconds_saved(TimePoint now) const {
  if (online_series_.empty() || now <= 0.0) return 0.0;
  double total = static_cast<double>(cdn_.server_count());
  double mean_online = online_series_.time_weighted_mean(0.0, now);
  return (total - mean_online) * now;
}

}  // namespace eona::control
