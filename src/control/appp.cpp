#include "control/appp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "sim/rng.hpp"

namespace eona::control {

namespace {

using sim::splitmix64;

/// Buckets per QoE window in the windowed group-by aggregators.
constexpr std::size_t kQoeWindowBuckets = 6;
// --- ABR ---
constexpr double kAbrSafety = 0.8;  ///< use at most this fraction of est. tput
constexpr Duration kPanicBuffer = 4.0;  ///< below this, lowest rendition
/// Buffer fill fraction above which the player probes one rendition above
/// the throughput-safe choice (how real players discover headroom -- and
/// how a crowd of them destabilises a saturated bottleneck). EONA
/// suppresses the probe while access congestion is signalled.
constexpr double kProbeUpBuffer = 0.70;
/// Renditions the ABR may step DOWN per chunk (FESTIVE-style smoothing;
/// real players damp downswitches to avoid reacting to noise). 0 =
/// unlimited. EONA lifts the limit while congestion is signalled: the
/// attribution says the drop is real, so jump straight to sustainable.
constexpr std::size_t kMaxDownSteps = 1;
// --- switching ---
/// Hinted server load that triggers a move.
constexpr double kServerOverloadThreshold = 0.90;
// --- Fig 3 congestion reaction ---
constexpr double kCongestionSeverityThreshold = 0.2;
/// Throughput discount at congestion severity 1.
constexpr double kCongestionBitrateMargin = 0.5;

/// Rate-based ABR shared by both brains: highest rendition within
/// kAbrSafety * estimated throughput, subject to an absolute cap; lowest
/// rung in panic (buffer nearly dry) or before any throughput sample
/// exists. With a comfortably full buffer the player probes one rung above
/// the safe choice (probe_up_buffer <= 0 disables probing).
std::size_t rate_based_bitrate(const app::PlayerView& v, BitsPerSecond cap,
                               double probe_up_buffer,
                               std::size_t max_down_steps) {
  const auto& ladder = *v.ladder;
  if (v.joined && v.buffer < kPanicBuffer) return 0;
  if (v.throughput_estimate <= 0.0) return 0;
  BitsPerSecond budget = std::min(kAbrSafety * v.throughput_estimate, cap);
  std::size_t best = 0;
  for (std::size_t i = 0; i < ladder.size(); ++i)
    if (ladder[i] <= budget) best = i;
  if (probe_up_buffer > 0.0 && v.joined && v.max_buffer > 0.0 &&
      v.buffer >= probe_up_buffer * v.max_buffer && best + 1 < ladder.size() &&
      ladder[best + 1] <= cap)
    ++best;
  // Downswitch smoothing: without better information the player treats a
  // throughput dip as possible noise and descends gradually.
  if (max_down_steps > 0 && best < v.bitrate_index) {
    std::size_t lowest_allowed =
        v.bitrate_index >= max_down_steps ? v.bitrate_index - max_down_steps
                                          : 0;
    best = std::max(best, lowest_allowed);
  }
  return best;
}

/// Sustained throughput too weak to carry the configured rung of the
/// ladder -- the "my CDN is slow" trigger of 2012-era switching players.
bool poor_throughput(const app::PlayerView& v,
                     const control::AppPConfig& cfg) {
  if (cfg.poor_throughput_rung == 0) return false;
  if (!v.joined || v.throughput_estimate <= 0.0) return false;
  if (cfg.poor_throughput_rung >= v.ladder->size()) return false;
  return v.throughput_estimate < (*v.ladder)[cfg.poor_throughput_rung];
}

/// Hash-pick an online server: what an AppP without load visibility gets
/// from CDN DNS. `salt` varies on re-picks so retries can land elsewhere.
/// The pick is the (h mod n)-th of the n online servers in directory
/// order, found by counting rather than by building a list.
ServerId hashed_server(const app::Cdn& cdn, SessionId session,
                       std::uint64_t salt) {
  const auto& servers = cdn.servers();
  std::size_t online = 0;
  for (const auto& s : servers) online += s.online ? 1 : 0;
  // With the whole fleet dark (e.g. a chaos-injected crash of a
  // single-server CDN), DNS keeps resolving rather than erroring the
  // player out: hash over all servers; the fetch fails fast on the dead
  // egress and the player's failure path retries elsewhere.
  const bool all = online == 0;
  const std::size_t n = all ? servers.size() : online;
  if (n == 0) throw NotFoundError("no server in cdn " + cdn.name());
  std::uint64_t h = splitmix64(session.value() ^ (salt * 0x517CC1B727220A95ull));
  // k < n, so the walk stops inside the directory.
  auto pick = servers.begin();
  for (std::size_t k = h % n;; ++pick)
    if ((all || pick->online) && k-- == 0) return pick->id;
}

}  // namespace

// ---------------------------------------------------------------------------
// BaselineBrain: trial-and-error. No visibility below the application layer.
// ---------------------------------------------------------------------------

class AppPController::BaselineBrain final : public app::PlayerBrain {
 public:
  explicit BaselineBrain(AppPController& ctl) : ctl_(ctl) {}

  app::Endpoint choose_endpoint(const app::PlayerView& v) override {
    CdnId cdn =
        v.cdn.valid() ? ctl_.next_cdn_after(v.cdn) : ctl_.primary_cdn();
    return {cdn, hashed_server(ctl_.cdns_.at(cdn), v.session, v.stall_count)};
  }

  bool should_switch_endpoint(const app::PlayerView& v) override {
    // The only signals available: my own stalls and my own throughput.
    // Whole-CDN switch is the only recourse (paper §2 "coarse control").
    if (v.stalls_since_switch >= ctl_.config_.stalls_before_switch)
      return true;
    return poor_throughput(v, ctl_.config_);
  }

  std::size_t choose_bitrate(const app::PlayerView& v) override {
    return rate_based_bitrate(v,
                              std::numeric_limits<BitsPerSecond>::infinity(),
                              kProbeUpBuffer, kMaxDownSteps);
  }

 private:
  AppPController& ctl_;
};

// ---------------------------------------------------------------------------
// EonaBrain: same mechanics, I2A-informed decisions.
// ---------------------------------------------------------------------------

class AppPController::EonaBrain final : public app::PlayerBrain {
 public:
  explicit EonaBrain(AppPController& ctl) : ctl_(ctl) {}

  app::Endpoint choose_endpoint(const app::PlayerView& v) override {
    const auto& i2a = ctl_.i2a_.view();
    if (!v.cdn.valid()) {
      CdnId cdn = ctl_.primary_cdn();
      return {cdn, pick_server(cdn, v, ServerId{})};
    }
    if (i2a) {
      // Problem attributed to the access network: switching cannot help;
      // stay put (bitrate logic reacts instead). A hard fetch failure
      // trumps the attribution -- the current endpoint is unreachable, so
      // staying put means staying dead.
      if (!v.endpoint_failed &&
          access_severity(v.isp) >= kCongestionSeverityThreshold)
        return {v.cdn, v.server};
      // Prefer an intra-CDN server switch (cache locality, §2) when the
      // current CDN's interconnect is healthy and a better server is hinted.
      if (peering_healthy(v.isp, v.cdn)) {
        ServerId sibling = best_hinted_server(v.cdn, v.server, v.session,
                                              v.now);
        if (sibling.valid()) return {v.cdn, sibling};
      }
      // Otherwise move to a CDN whose interconnect is healthy.
      for (const app::Cdn* cdn : ctl_.cdns_.all()) {
        if (cdn->id() == v.cdn) continue;
        if (peering_healthy(v.isp, cdn->id()))
          return {cdn->id(), pick_server(cdn->id(), v, ServerId{})};
      }
    }
    // No usable information: behave like the baseline.
    CdnId cdn = ctl_.next_cdn_after(v.cdn);
    return {cdn, pick_server(cdn, v, ServerId{})};
  }

  void note_transfer_failure(const app::PlayerView& v) override {
    health_.record_failure(endpoint_key(v.cdn, v.server), v.now);
  }

  void note_transfer_success(const app::PlayerView& v) override {
    health_.record_success(endpoint_key(v.cdn, v.server));
  }

  bool should_switch_endpoint(const app::PlayerView& v) override {
    const auto& i2a = ctl_.i2a_.view();
    if (i2a) {
      // Hinted hard failures trump everything.
      for (const auto& h : i2a->server_hints)
        if (h.cdn == v.cdn && h.server == v.server && !h.online) return true;
      // Access congestion: do NOT switch (Fig 3's lesson).
      if (access_severity(v.isp) >= kCongestionSeverityThreshold)
        return false;
      // Current server's hint, if any: overload with a healthy sibling is a
      // reason to move; a clean bill of health is a reason to *stay* -- the
      // player attributes its own transient stall to noise rather than
      // burning a switch (the paper's "reduce trial-and-error" claim).
      for (const auto& h : i2a->server_hints) {
        if (h.cdn != v.cdn || h.server != v.server) continue;
        if (h.load > kServerOverloadThreshold)
          return best_hinted_server(v.cdn, v.server, v.session, v.now)
              .valid();
        return false;  // hinted healthy: hold
      }
    }
    if (v.stalls_since_switch >= ctl_.config_.stalls_before_switch)
      return true;
    // Poor throughput without an access-congestion attribution: worth
    // trying elsewhere (same trigger as baseline, but informed).
    return poor_throughput(v, ctl_.config_);
  }

  std::size_t choose_bitrate(const app::PlayerView& v) override {
    BitsPerSecond cap = std::numeric_limits<BitsPerSecond>::infinity();
    double severity = access_severity(v.isp);
    double probe = kProbeUpBuffer;
    std::size_t down_steps = kMaxDownSteps;
    if (severity >= kCongestionSeverityThreshold &&
        v.throughput_estimate > 0.0) {
      // Congestion is in the shared access segment: be deliberately more
      // conservative than the fair share we currently measure, so the
      // aggregate steps down and the bottleneck drains (Fig 3). The
      // attribution also says the dip is real: stop probing upward and
      // lift the downswitch smoothing (jump straight to sustainable).
      cap = v.throughput_estimate *
            (1.0 - kCongestionBitrateMargin * severity);
      probe = 0.0;
      down_steps = 0;
    }
    return rate_based_bitrate(v, cap, probe, down_steps);
  }

 private:
  /// Endpoint-health key: one player's aborted fetch on (cdn, server) backs
  /// the whole fleet off that endpoint until the hold expires or a chunk
  /// lands there again.
  [[nodiscard]] static std::uint64_t endpoint_key(CdnId cdn,
                                                  ServerId server) {
    return (static_cast<std::uint64_t>(cdn.value()) << 32) | server.value();
  }

  /// Max hinted severity of access-scope congestion for this ISP; 0 if none.
  [[nodiscard]] double access_severity(IspId isp) const {
    const auto& i2a = ctl_.i2a_.view();
    if (!i2a) return 0.0;
    double severity = 0.0;
    for (const auto& c : i2a->congestion)
      if (c.scope == core::CongestionScope::kAccess &&
          (!c.isp.valid() || !isp.valid() || c.isp == isp))
        severity = std::max(severity, c.severity);
    return severity;
  }

  /// Is the ISP's selected interconnect for `cdn` NOT congested? Unknown
  /// pairs count as healthy.
  [[nodiscard]] bool peering_healthy(IspId isp, CdnId cdn) const {
    const auto& i2a = ctl_.i2a_.view();
    if (!i2a) return true;
    for (const auto& p : i2a->peerings)
      if (p.cdn == cdn && (!isp.valid() || p.isp == isp) && p.selected &&
          p.congested)
        return false;
    return true;
  }

  /// A healthy hinted server of `cdn` other than `exclude`; invalid when no
  /// hint qualifies. Chosen by session hash across all under-threshold
  /// servers rather than argmin-load: a fleet of players all chasing the
  /// same "least loaded" server would simply move the hot spot. Endpoints
  /// inside a failure hold-down are skipped unless every qualifying server
  /// is held down (a maybe-dead server beats certain failure).
  [[nodiscard]] ServerId best_hinted_server(CdnId cdn, ServerId exclude,
                                            SessionId session,
                                            TimePoint now) const {
    const auto& i2a = ctl_.i2a_.view();
    if (!i2a) return ServerId{};
    std::vector<ServerId> healthy;
    std::vector<ServerId> held;
    for (const auto& h : i2a->server_hints) {
      if (h.cdn != cdn || !h.online || h.server == exclude) continue;
      if (h.load >= kServerOverloadThreshold) continue;
      if (health_.available(endpoint_key(cdn, h.server), now))
        healthy.push_back(h.server);
      else
        held.push_back(h.server);
    }
    if (healthy.empty()) healthy.swap(held);
    if (healthy.empty()) return ServerId{};
    return healthy[splitmix64(session.value()) % healthy.size()];
  }

  /// Hinted least-loaded pick; falls back to the hashed pick when no hints.
  /// The hashed fallback re-salts a few times to step around endpoints in a
  /// failure hold-down before giving in and using one anyway.
  [[nodiscard]] ServerId pick_server(CdnId cdn, const app::PlayerView& v,
                                     ServerId exclude) const {
    ServerId hinted = best_hinted_server(cdn, exclude, v.session, v.now);
    if (hinted.valid()) return hinted;
    const app::Cdn& directory = ctl_.cdns_.at(cdn);
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      ServerId s = hashed_server(directory, v.session, v.stall_count + salt);
      if (health_.available(endpoint_key(cdn, s), v.now)) return s;
    }
    return hashed_server(directory, v.session, v.stall_count);
  }

  AppPController& ctl_;
  /// Hold-down the brain applies to endpoints whose fetches the data plane
  /// aborted (dead path / crashed server): consecutive failures back the
  /// fleet off exponentially; one delivered chunk forgives.
  core::EndpointHealth health_;
};

// ---------------------------------------------------------------------------
// AppPController
// ---------------------------------------------------------------------------

AppPController::AppPController(sim::Scheduler& sched, net::Network& network,
                               const app::CdnDirectory& cdns, ProviderId self,
                               AppPConfig config)
    : sched_(sched),
      network_(network),
      cdns_(cdns),
      self_(self),
      config_(config),
      by_isp_cdn_(telemetry::Dim::kIsp | telemetry::Dim::kCdn,
                  config.qoe_window, kQoeWindowBuckets),
      by_isp_cdn_server_(telemetry::Dim::kIsp | telemetry::Dim::kCdn |
                             telemetry::Dim::kServer,
                         config.qoe_window, kQoeWindowBuckets),
      i2a_(sched, self, "i2a", config.robust_fetch, config.i2a_retry,
           /*seed_salt=*/0xD1B54A32D192ED03ull,
           [this](ProviderId infp, TimePoint now) {
             return port_.fetch_i2a(infp, now);
           },
           [this](ProviderId infp) -> const core::ChannelStats& {
             return port_.i2a_leg_stats(infp);
           }),
      primary_dwell_(config.primary_dwell),
      baseline_brain_(std::make_unique<BaselineBrain>(*this)),
      eona_brain_(std::make_unique<EonaBrain>(*this)) {
  EONA_EXPECTS(cdns.size() > 0);
  primary_cdn_ = cdns.all().front()->id();
  primary_trace_.record(sched_.now(), static_cast<int>(primary_cdn_.value()));
  collector_.add_sink([this](const telemetry::SessionRecord& r) {
    by_isp_cdn_.ingest(r);
    by_isp_cdn_server_.ingest(r);
  });
}

AppPController::~AppPController() = default;

void AppPController::bind_exchange(core::ExchangeEndpoint port) {
  port_ = port;
  // Arm the broker re-registration chain. The seed depends on the tenant
  // identity alone, so backoff jitter is reproducible regardless of build
  // order or workload randomness.
  if (port_.bound()) {
    port_.arm_reattach(sched_,
                       splitmix64(self_.value() ^ 0xB5026F5AA96619E9ull));
    // Republish out of band the moment we are re-admitted: subscribed InfPs
    // recover a fresh view without waiting out our control period.
    port_.set_on_reattach(
        [this](TimePoint now) { port_.publish_a2i(build_a2i_report(), now); });
  }
}

void AppPController::subscribe_i2a(ProviderId infp) {
  EONA_EXPECTS(port_.bound());
  i2a_.subscribe(infp);
}

void AppPController::set_event_bus(sim::EventBus* bus) {
  bus_ = bus;
  i2a_.set_event_bus(bus);
  if (bus_ != nullptr) {
    // Broker faults go straight to the endpoint: a crash starts its
    // reattach backoff chain without waiting for a rejected publish.
    bus_->subscribe<sim::FaultEvent>([this](const sim::FaultEvent& e) {
      if (std::strcmp(e.kind, "exchange_crash") == 0 ||
          std::strcmp(e.kind, "exchange_restart") == 0)
        port_.on_broker_fault(e.kind, e.t);
    });
  }
}

app::PlayerBrain& AppPController::brain() {
  return eona_enabled_ ? static_cast<app::PlayerBrain&>(*eona_brain_)
                       : static_cast<app::PlayerBrain&>(*baseline_brain_);
}
app::PlayerBrain& AppPController::baseline_brain() { return *baseline_brain_; }
app::PlayerBrain& AppPController::eona_brain() { return *eona_brain_; }

void AppPController::start() {
  EONA_EXPECTS(task_ == nullptr);
  task_ = std::make_unique<sim::PeriodicTask>(sched_, config_.control_period,
                                              [this] { tick(); });
}

void AppPController::stop() { task_.reset(); }

void AppPController::tick() {
  ++tick_count_;
  // Build the report once per epoch; publish and steering both consume it.
  core::A2IReport report = build_a2i_report();
  if (port_.bound()) port_.publish_a2i(report, sched_.now());
  publish_a2i_samples(report);
  // Graceful degradation: on stale data the primary-CDN knob moves at most
  // half as often (stale_widening). Gated on a finite freshness deadline so
  // the default configuration is bit-identical to the pre-fault controller.
  if (i2a_.refresh() && std::isfinite(config_.i2a_retry.freshness_deadline))
    primary_dwell_.set_widening(
        i2a_.stale() ? std::max(1.0, config_.stale_widening) : 1.0);
  steer_primary_cdn(report);
}

void AppPController::publish_a2i_samples(const core::A2IReport& report) {
  // Mirror every exported v2 tuple onto the bus, one event per tuple, so
  // the trace and the columnar telemetry store carry the full A2I stream
  // (report order, which is already deterministically sorted).
  if (bus_ == nullptr) return;
  const TimePoint now = sched_.now();
  for (const auto& g : report.groups) {
    bus_->publish(sim::A2IQoeSampleEvent{
        now, self_, g.isp, g.cdn, g.server, g.mean_buffering_ratio,
        g.p90_buffering_ratio, g.mean_bitrate, g.mean_engagement,
        g.sessions});
  }
  for (const auto& f : report.forecasts) {
    bus_->publish(sim::A2IForecastSampleEvent{now, self_, f.isp, f.cdn,
                                              f.expected_rate});
  }
}

core::A2IReport AppPController::build_a2i_report() const {
  TimePoint now = sched_.now();
  core::A2IReport report;
  report.from = self_;
  report.generated_at = now;

  auto fill_group = [](const telemetry::Dimensions& dims,
                       const telemetry::MetricAggregate& agg) {
    core::QoeGroupReport g;
    g.isp = dims.isp;
    g.cdn = dims.cdn;
    g.server = dims.server;
    g.mean_buffering_ratio = agg.buffering_ratio.mean();
    // p90 via a normal approximation of the window distribution; the exact
    // sketch lives in the unwindowed aggregator, but control wants recency.
    double p90 = agg.buffering_ratio.mean() +
                 1.2816 * agg.buffering_ratio.stddev();
    g.p90_buffering_ratio = std::clamp(p90, 0.0, 1.0);
    g.mean_bitrate = agg.avg_bitrate.mean();
    g.mean_join_time = agg.join_time.mean();
    g.mean_engagement = agg.engagement.mean();
    g.sessions = agg.records;
    return g;
  };

  for (const auto& [dims, agg] : by_isp_cdn_.snapshot(now)) {
    if (agg.empty()) continue;
    report.groups.push_back(fill_group(dims, agg));
    core::TrafficForecast f;
    f.isp = dims.isp;
    f.cdn = dims.cdn;
    f.expected_rate = agg.total_bits / config_.qoe_window;
    if (config_.intended_bitrate > 0.0) {
      // Forecast *intended* volume (paper §4): sessions times the rate the
      // AppP wants to deliver, not the degraded rate it currently achieves.
      // Players beacon every app::kBeaconPeriod (their default cadence).
      double active_estimate = static_cast<double>(agg.records) *
                               app::kBeaconPeriod / config_.qoe_window;
      f.expected_rate = std::max(f.expected_rate,
                                 active_estimate * config_.intended_bitrate);
    }
    f.expected_rate *= config_.forecast_exaggeration;
    report.forecasts.push_back(f);
  }
  for (const auto& [dims, agg] : by_isp_cdn_server_.snapshot(now)) {
    if (agg.empty()) continue;
    // Beacons with no server attribution project to a server-wildcard group
    // that would duplicate the CDN-level one above; skip those.
    if (!dims.server.valid()) continue;
    report.groups.push_back(fill_group(dims, agg));
  }
  return report;
}

bool AppPController::primary_qoe_bad() const {
  telemetry::MetricAggregate merged;
  for (const auto& [dims, agg] : by_isp_cdn_.snapshot(sched_.now()))
    if (dims.cdn == primary_cdn_) merged.merge(agg);
  if (merged.empty()) return false;
  if (merged.buffering_ratio.mean() > config_.bad_qoe_buffering) return true;
  if (config_.bad_qoe_bitrate > 0.0 &&
      merged.avg_bitrate.mean() < config_.bad_qoe_bitrate)
    return true;
  return false;
}

CdnId AppPController::next_cdn_after(CdnId current) const {
  const auto& all = cdns_.all();
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i]->id() == current) return all[(i + 1) % all.size()]->id();
  return all.front()->id();
}

void AppPController::set_primary_cdn(CdnId cdn, const char* reason) {
  if (cdn == primary_cdn_) return;
  CdnId from = primary_cdn_;
  primary_cdn_ = cdn;
  primary_trace_.record(sched_.now(), static_cast<int>(cdn.value()));
  primary_dwell_.record_change(sched_.now());
  if (bus_ != nullptr)
    bus_->publish(
        sim::SteeringEvent{sched_.now(), self_, from, cdn, false, reason});
}

void AppPController::hold_primary_cdn(const char* reason) {
  if (bus_ != nullptr)
    bus_->publish(sim::SteeringEvent{sched_.now(), self_, primary_cdn_,
                                     primary_cdn_, true, reason});
}

void AppPController::steer_primary_cdn(const core::A2IReport& report) {
  if (cdns_.size() < 2) return;
  if (!primary_qoe_bad()) return;
  if (!primary_dwell_.may_change(sched_.now())) return;

  const std::optional<core::I2AReport>& i2a = i2a_.view();
  if (eona_enabled_ && i2a) {
    // Attribute before acting. Access congestion: no CDN will do better.
    for (const auto& c : i2a->congestion)
      if (c.scope == core::CongestionScope::kAccess &&
          c.severity >= kCongestionSeverityThreshold)
        return hold_primary_cdn("access-congestion");
    // The primary CDN still has healthy capacity behind it (hinted online,
    // unloaded servers): players will move servers inside the CDN; a
    // wholesale primary switch would only cold-start the rival (§2).
    for (const auto& h : i2a->server_hints)
      if (h.cdn == primary_cdn_ && h.online &&
          h.load < kServerOverloadThreshold)
        return hold_primary_cdn("healthy-primary-servers");
    // Interconnect trouble, but the ISP has (or can move to) a peering
    // point with headroom for us: hold position and let the InfP act --
    // this is exactly the information that breaks the Fig 5 cycle.
    BitsPerSecond our_rate = 0.0;
    for (const auto& f : report.forecasts)
      if (f.cdn == primary_cdn_) our_rate += f.expected_rate;
    for (const auto& p : i2a->peerings) {
      if (p.cdn != primary_cdn_) continue;
      BitsPerSecond headroom = p.capacity * (1.0 - p.utilization);
      if (!p.congested && (p.selected || headroom >= our_rate))
        return hold_primary_cdn("peering-healthy");
      if (p.capacity >= our_rate && !p.selected)
        return hold_primary_cdn("isp-can-shift-egress");
    }
  }
  set_primary_cdn(next_cdn_after(primary_cdn_), "bad-qoe-trial-switch");
}

}  // namespace eona::control
