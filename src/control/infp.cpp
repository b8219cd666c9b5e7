#include "control/infp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "sim/rng.hpp"

namespace eona::control {

namespace {

using sim::splitmix64;

// --- congestion detection (thresholds on windowed means) ---
constexpr double kCongestedUtilization = 0.85;
constexpr double kStarvedFraction = 0.30;  ///< min starved share to call it
/// Utilization at which access severity starts.
constexpr double kAccessAlertUtilization = 0.80;
// --- baseline TE ---
constexpr double kFleeUtilization = 0.85;  ///< leave a peering point above this
constexpr double kReturnUtilization = 0.40;  ///< return to preferred below
// --- EONA TE ---
constexpr double kForecastHeadroom = 1.15;  ///< required capacity / forecast
// --- server health checks (operated CDNs) ---
/// A server whose current serving capacity has fallen below this fraction
/// of its nominal capacity is hinted offline (an idle degraded box would
/// otherwise advertise load ~0 and lure the fleet straight back).
constexpr double kServerHealthFraction = 0.5;
// --- egress-share division ---
/// Floor fraction of the pool per CDN (starvation guard).
constexpr double kMinEgressShare = 0.05;

}  // namespace

InfPController::InfPController(sim::Scheduler& sched, net::Network& network,
                               const net::Routing& routing,
                               net::PeeringBook& peering, IspId isp,
                               ProviderId self,
                               std::vector<LinkId> access_links,
                               InfPConfig config)
    : sched_(sched),
      network_(network),
      routing_(routing),
      peering_(peering),
      isp_(isp),
      self_(self),
      access_links_(std::move(access_links)),
      config_(config),
      a2i_(sched, self, "a2i", config.robust_fetch, config.a2i_retry,
           /*seed_salt=*/0x2545F4914F6CDD1Dull,
           [this](ProviderId appp, TimePoint now) {
             return port_.fetch_a2i(appp, now);
           },
           [this](ProviderId appp) -> const core::ChannelStats& {
             return port_.a2i_leg_stats(appp);
           }) {
  // Record initial selections; the first-registered point per CDN is the
  // ISP's preferred (cheapest) interconnect.
  std::vector<LinkId> monitored = access_links_;
  for (PeeringId pid : peering_.points_of_isp(isp_)) {
    const net::PeeringPoint& p = peering_.point(pid);
    monitored.push_back(p.ingress_link);
    if (preferred_.find(p.cdn) == preferred_.end()) {
      preferred_.emplace(p.cdn, pid);
      egress_dwell_.emplace(p.cdn, DwellTimer(config_.egress_dwell));
      egress_traces_[p.cdn].record(
          sched_.now(),
          static_cast<int>(peering_.selected(isp_, p.cdn).value()));
    }
  }
  monitor_ = std::make_unique<LinkMonitor>(sched_, network_,
                                           std::move(monitored),
                                           config_.sample_period,
                                           config_.window_samples);
  forecaster_ = Forecaster(config_.forecast);
}

InfPController::~InfPController() = default;

void InfPController::bind_exchange(core::ExchangeEndpoint port) {
  port_ = port;
  // Arm the broker re-registration chain. The seed depends on the tenant
  // identity alone, so backoff jitter is reproducible regardless of build
  // order or workload randomness.
  if (port_.bound()) {
    port_.arm_reattach(sched_,
                       splitmix64(self_.value() ^ 0x8CB92BA72F3D8DD7ull));
    // Republish out of band the moment we are re-admitted: subscribed AppPs
    // recover a fresh view without waiting out our control period.
    port_.set_on_reattach(
        [this](TimePoint now) { port_.publish_i2a(build_i2a_report(), now); });
  }
}

void InfPController::attach_cdn(const app::Cdn* cdn) {
  EONA_EXPECTS(cdn != nullptr);
  operated_cdns_.push_back(cdn);
  for (const auto& server : cdn->servers()) {
    if (!monitor_->tracks(server.egress)) monitor_->track(server.egress);
    nominal_capacity_[server.egress] = network_.link_capacity(server.egress);
  }
}

void InfPController::start() {
  EONA_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(sched_, config_.control_period,
                                              [this] { tick(); });
}

void InfPController::subscribe_a2i(ProviderId appp) {
  EONA_EXPECTS(port_.bound());
  a2i_.subscribe(appp);
}

void InfPController::set_event_bus(sim::EventBus* bus) {
  bus_ = bus;
  monitor_->set_event_bus(bus);
  a2i_.set_event_bus(bus);
  if (bus_ != nullptr)
    bus_->subscribe<sim::FaultEvent>(
        [this](const sim::FaultEvent& e) { on_fault(e); });
}

void InfPController::on_fault(const sim::FaultEvent& e) {
  // Broker faults carry no topology element: hand them to the endpoint (a
  // crash starts its reattach backoff chain) and leave the link logic alone.
  if (std::strcmp(e.kind, "exchange_crash") == 0 ||
      std::strcmp(e.kind, "exchange_restart") == 0) {
    if (port_.bound()) port_.on_broker_fault(e.kind, e.t);
    return;
  }
  // Detection hygiene (both modes): every sample taken before the event
  // describes a link that no longer exists in that form; a window that
  // straddles the fault reports stale utilisation.
  if (monitor_->tracks(e.link)) monitor_->clear(e.link);
  bool dead = std::strcmp(e.kind, "link_down") == 0 ||
              std::strcmp(e.kind, "server_crash") == 0;
  if (!eona_enabled_ || !dead) return;
  // Self-healing: when the dead link is a *selected* peering ingress, steer
  // the affected CDN's sector onto the best surviving point right now --
  // select_egress reroutes its live flows before the data plane's stranded
  // sweep can abort them.
  bool affected = false;
  for (PeeringId pid : peering_.points_of_isp(isp_)) {
    const net::PeeringPoint& point = peering_.point(pid);
    if (point.ingress_link != e.link) continue;
    affected = true;
    if (peering_.selected(isp_, point.cdn) != pid) continue;
    PeeringId target = pick_failover_target(point.cdn);
    if (!target.valid() || target == pid) continue;
    select_egress(target, "failover");
    ++failover_count_;
  }
  // Reflect the outage in the looking glass immediately: zero capacity,
  // congested peering, offline server hints reach subscribed AppPs without
  // waiting out the control period.
  if ((affected || nominal_capacity_.count(e.link) > 0) && port_.bound())
    port_.publish_i2a(build_i2a_report(), sched_.now());
}

PeeringId InfPController::pick_failover_target(CdnId cdn) const {
  auto up = [this](PeeringId pid) {
    return network_.link_up(peering_.point(pid).ingress_link);
  };
  auto preferred = preferred_.find(cdn);
  if (preferred != preferred_.end() && up(preferred->second))
    return preferred->second;
  for (PeeringId pid : peering_.points_of_isp(isp_))
    if (peering_.point(pid).cdn == cdn && up(pid)) return pid;
  return PeeringId{};
}

void InfPController::stop() { task_.reset(); }

void InfPController::tick() {
  ++tick_count_;
  // Graceful degradation: stale forecasts slow every egress knob down.
  // Gated on a finite freshness deadline so the default configuration is
  // bit-identical to the pre-fault controller.
  if (a2i_.refresh() && std::isfinite(config_.a2i_retry.freshness_deadline)) {
    double widening =
        a2i_.stale() ? std::max(1.0, config_.stale_widening) : 1.0;
    for (auto& [cdn, dwell] : egress_dwell_) dwell.set_widening(widening);
  }
  run_traffic_engineering();
  run_provisioning();
  run_egress_sharing();
  if (port_.bound()) port_.publish_i2a(build_i2a_report(), sched_.now());
}

void InfPController::run_egress_sharing() {
  const InfPConfig::EgressShareConfig& es = config_.egress_share;
  if (!es.enabled || es.pool <= 0.0) return;
  // One ingress link per CDN: the selected peering point's. The pool is
  // divided proportional to each CDN's visible A2I forecast claim (equal
  // split when nothing is visible yet), floored at kMinEgressShare so no tenant
  // starves outright, then renormalised.
  std::map<CdnId, LinkId> ingress;
  for (PeeringId pid : peering_.points_of_isp(isp_)) {
    const net::PeeringPoint& p = peering_.point(pid);
    if (peering_.selected(isp_, p.cdn) == pid) ingress[p.cdn] = p.ingress_link;
  }
  if (ingress.empty()) return;

  std::map<CdnId, double> weight;
  double total = 0.0;
  for (const auto& [cdn, link] : ingress) {
    auto claim = forecast_for(cdn);
    double w = claim ? std::max(*claim, 0.0) : 0.0;
    weight[cdn] = w;
    total += w;
  }
  std::map<CdnId, double> share;
  double renorm = 0.0;
  for (const auto& [cdn, w] : weight) {
    double s = total > 0.0 ? w / total : 1.0 / ingress.size();
    s = std::max(s, kMinEgressShare);
    share[cdn] = s;
    renorm += s;
  }
  net::Network::Batch batch(network_);
  for (const auto& [cdn, link] : ingress) {
    double s = share[cdn] / renorm;
    egress_shares_[cdn] = s;
    network_.set_link_capacity(link, s * es.pool);
  }
}

void InfPController::run_provisioning() {
  const ProvisionConfig& pc = config_.provision;
  if (!pc.enabled || pc.step <= 0.0 || pc.max_capacity <= 0.0) return;
  const TimePoint now = sched_.now();
  for (LinkId link : access_links_) {
    if (!network_.link_up(link)) continue;
    const BitsPerSecond capacity = network_.link_capacity(link);
    auto pending = pending_orders_.find(link);
    // Capacity already committed: the live link plus any in-flight order.
    const BitsPerSecond provisioned =
        pending != pending_orders_.end() ? pending->second : capacity;
    const double windowed_util = monitor_->mean_utilization(link);
    double demand = windowed_util * capacity;

    if (pc.forecast_driven) {
      // Feed the smoother the freshest demand estimate available: the
      // store's mean carried rate over the trailing control period when a
      // store is attached, the instantaneous rate otherwise -- then order
      // against the projected demand, not just the current one.
      double sample = network_.link_utilization(link) * capacity;
      if (store_ != nullptr) {
        telemetry::StoreQuery q;
        q.metric = "link_rate";
        q.entity = link.value();
        q.t0 = now - config_.control_period;
        q.t1 = now;
        q.agg = telemetry::Agg::kMean;
        auto rows = store_->run(q);
        if (!rows.empty()) sample = rows.front().value;
      }
      forecaster_.observe(link.value(), now, sample);
      auto projected = forecaster_.forecast(link.value(), pc.horizon);
      demand = std::max(demand, sample);
      if (projected) demand = std::max(demand, *projected);
    } else if (windowed_util < pc.order_utilization) {
      continue;  // reactive: not sustained-hot yet, hold
    }

    const BitsPerSecond needed = demand * pc.headroom;
    if (needed <= provisioned) continue;
    const double steps = std::ceil((needed - provisioned) / pc.step);
    const BitsPerSecond target =
        std::min(pc.max_capacity, provisioned + steps * pc.step);
    if (target <= provisioned) continue;

    pending_orders_[link] = target;
    ++provision_order_count_;
    const char* reason = pc.forecast_driven ? "forecast" : "reactive";
    if (bus_ != nullptr)
      bus_->publish(sim::ProvisionEvent{now, self_, link, provisioned,
                                        target, pc.lead_time, "ordered",
                                        reason});
    sched_.schedule_at(now + pc.lead_time, [this, link, target, reason] {
      const BitsPerSecond from = network_.link_capacity(link);
      if (target > from) network_.set_link_capacity(link, target);
      auto it = pending_orders_.find(link);
      if (it != pending_orders_.end() && it->second <= target)
        pending_orders_.erase(it);
      if (bus_ != nullptr)
        bus_->publish(sim::ProvisionEvent{sched_.now(), self_, link, from,
                                          target, 0.0, "delivered", reason});
    });
  }
}

core::I2AReport InfPController::build_i2a_report() const {
  core::I2AReport report;
  report.from = self_;
  report.generated_at = sched_.now();

  for (PeeringId pid : peering_.points_of_isp(isp_)) {
    const net::PeeringPoint& point = peering_.point(pid);
    core::PeeringStatus status;
    status.peering = pid;
    status.isp = isp_;
    status.cdn = point.cdn;
    status.capacity = network_.link_capacity(point.ingress_link);
    status.utilization = monitor_->mean_utilization(point.ingress_link);
    status.congested = monitor_->congested(point.ingress_link,
                                           kCongestedUtilization,
                                           kStarvedFraction) ||
                       !network_.link_up(point.ingress_link);
    status.selected = peering_.selected(isp_, point.cdn) == pid;
    report.peerings.push_back(status);

    if (status.congested) {
      core::CongestionSignal signal;
      signal.isp = isp_;
      signal.scope = core::CongestionScope::kPeering;
      signal.peering = pid;
      signal.severity = std::clamp(
          (status.utilization - kAccessAlertUtilization) /
              (1.0 - kAccessAlertUtilization),
          0.0, 1.0);
      report.congestion.push_back(signal);
    }
  }

  for (LinkId lid : access_links_) {
    double util = monitor_->mean_utilization(lid);
    bool starved = monitor_->starved_fraction(lid) >= kStarvedFraction;
    if (util >= kAccessAlertUtilization && starved) {
      core::CongestionSignal signal;
      signal.isp = isp_;
      signal.scope = core::CongestionScope::kAccess;
      signal.severity = std::clamp(
          (util - kAccessAlertUtilization) / (1.0 - kAccessAlertUtilization),
          0.0, 1.0);
      report.congestion.push_back(signal);
    }
  }

  for (const app::Cdn* cdn : operated_cdns_) {
    for (const auto& server : cdn->servers()) {
      core::ServerHint hint;
      hint.cdn = cdn->id();
      hint.server = server.id;
      hint.load = monitor_->tracks(server.egress)
                      ? monitor_->mean_utilization(server.egress)
                      : network_.link_utilization(server.egress);
      // Health check: degraded serving capacity marks the server offline in
      // the hint even though it technically still answers.
      auto nominal = nominal_capacity_.find(server.egress);
      bool healthy = nominal == nominal_capacity_.end() ||
                     network_.link_capacity(server.egress) >=
                         kServerHealthFraction * nominal->second;
      hint.online = server.online && healthy;
      report.server_hints.push_back(hint);
    }
  }
  return report;
}

double InfPController::utilization(PeeringId point) const {
  return monitor_->mean_utilization(peering_.point(point).ingress_link);
}

std::optional<BitsPerSecond> InfPController::forecast_for(CdnId cdn) const {
  const std::optional<core::A2IReport>& a2i = a2i_.view();
  if (!a2i) return std::nullopt;
  BitsPerSecond total = 0.0;
  bool found = false;
  for (const auto& f : a2i->forecasts) {
    if (f.cdn != cdn) continue;
    if (f.isp.valid() && f.isp != isp_) continue;
    total += f.expected_rate;
    found = true;
  }
  if (!found) return std::nullopt;
  return total;
}

void InfPController::run_traffic_engineering() {
  // Group this ISP's peering points by CDN, preserving registration order.
  std::map<CdnId, std::vector<PeeringId>> by_cdn;
  for (PeeringId pid : peering_.points_of_isp(isp_))
    by_cdn[peering_.point(pid).cdn].push_back(pid);
  for (const auto& [cdn, candidates] : by_cdn) {
    if (candidates.size() < 2) continue;
    engineer_cdn(cdn, candidates);
  }
}

void InfPController::engineer_cdn(CdnId cdn,
                                  const std::vector<PeeringId>& candidates) {
  PeeringId current = peering_.selected(isp_, cdn);
  PeeringId preferred = preferred_.at(cdn);
  PeeringId target = current;
  const char* reason = "forecast-fit";

  if (eona_enabled_) {
    // EONA TE: place the CDN's *forecast* volume, not its momentary load.
    auto forecast = forecast_for(cdn);
    if (!forecast) return;  // no information, hold position
    BitsPerSecond needed = *forecast * kForecastHeadroom;
    auto fits = [&](PeeringId pid) {
      return network_.link_capacity(peering_.point(pid).ingress_link) >=
             needed;
    };
    if (fits(preferred)) {
      target = preferred;
    } else if (!fits(current)) {
      // Smallest point that fits; otherwise the biggest available.
      PeeringId best_fit;
      BitsPerSecond best_cap = 0.0;
      PeeringId biggest;
      BitsPerSecond biggest_cap = -1.0;
      for (PeeringId pid : candidates) {
        BitsPerSecond cap =
            network_.link_capacity(peering_.point(pid).ingress_link);
        if (cap >= needed && (!best_fit.valid() || cap < best_cap)) {
          best_fit = pid;
          best_cap = cap;
        }
        if (cap > biggest_cap) {
          biggest = pid;
          biggest_cap = cap;
        }
      }
      target = best_fit.valid() ? best_fit : biggest;
    }
  } else {
    // Baseline TE: flee heat, drift home to the cheap point when idle.
    if (utilization(current) >= kFleeUtilization) {
      PeeringId coolest;
      double coolest_util = 0.0;
      for (PeeringId pid : candidates) {
        if (pid == current) continue;
        double util = utilization(pid);
        if (!coolest.valid() || util < coolest_util) {
          coolest = pid;
          coolest_util = util;
        }
      }
      if (coolest.valid()) {
        target = coolest;
        reason = "flee-hot-peering";
      }
    } else if (current != preferred &&
               utilization(preferred) <= kReturnUtilization) {
      target = preferred;
      reason = "return-to-preferred";
    }
  }

  if (target == current) return;
  // Dampening applies to both worlds: the egress knob may only move once
  // per dwell period (§5's dampening ablation sweeps this).
  auto dwell = egress_dwell_.find(cdn);
  if (dwell != egress_dwell_.end() && !dwell->second.may_change(sched_.now()))
    return;
  select_egress(target, reason);
}

void InfPController::select_egress(PeeringId point, const char* reason) {
  const net::PeeringPoint& to = peering_.point(point);
  PeeringId current = peering_.selected(isp_, to.cdn);
  if (current == point) return;
  const net::PeeringPoint& from = peering_.point(current);
  peering_.select(point);
  std::size_t moved = migrate_flows(from, to);
  egress_traces_[to.cdn].record(sched_.now(), static_cast<int>(point.value()));
  auto dwell = egress_dwell_.find(to.cdn);
  if (dwell != egress_dwell_.end()) dwell->second.record_change(sched_.now());
  if (bus_ != nullptr)
    bus_->publish(sim::MigrationEvent{sched_.now(), self_, to.cdn, current,
                                      point, moved, reason});
}

std::size_t InfPController::migrate_flows(const net::PeeringPoint& from,
                                          const net::PeeringPoint& to) {
  // An egress shift moves every flow on the old ingress at once; batch the
  // reroutes so the data plane re-solves rates a single time.
  net::Network::Batch batch(network_);
  std::size_t moved = 0;
  net::Path path;
  for (FlowId fid : network_.flows_on(from.ingress_link)) {
    NodeId src = network_.flow_src(fid);
    NodeId dst = network_.flow_dst(fid);
    path.clear();
    routing_.path_via_link(src, to.ingress_link, dst, path);
    network_.reroute(fid, path);
    ++reroute_count_;
    ++moved;
  }
  return moved;
}

const DecisionTrace& InfPController::egress_trace(CdnId cdn) const {
  auto it = egress_traces_.find(cdn);
  if (it == egress_traces_.end())
    throw NotFoundError("no egress trace for cdn " +
                        std::to_string(cdn.value()));
  return it->second;
}

}  // namespace eona::control
