// The brokered interface plane (ROADMAP item 1; AONA's "global
// collaboration" step). Instead of each AppP hand-wiring a ReportChannel to
// each InfP, every tenant registers with one eona::Exchange and all A2I/I2A
// flow crosses it:
//
//  * registration    -- AppPs and InfPs enroll once; the broker mints the
//                       bearer tokens for every leg it wires, so tenants
//                       never exchange credentials directly;
//  * trust levels    -- each tenant pair is wired at a TrustLevel that
//                       redacts attribute sets (policy.hpp) before delivery;
//                       kFull reproduces direct wiring byte-for-byte;
//  * rate limiting   -- each I2A leg carries a deterministic token bucket,
//                       so one chatty InfP cannot flood a tenant's fetchers;
//  * egress quotas   -- per-AppP egress-share quotas are enforced on the
//                       broker's A2I path: a tenant's exported traffic
//                       forecasts are clamped to its share of the exchange's
//                       egress reference *before* any InfP sees them. The
//                       clamp lives here, not in the (untrusted) client.
//
// Each producer tenant keeps one LookingGlass inside the broker, so all
// per-leg semantics -- per-peer policy application, propagation delay,
// FaultProfile, bus events, ChannelStats -- are exactly those of the
// pre-broker point-to-point channels.
//
// The broker is *mortal* (ChaosEngine `crash:exchange@t` /
// `restart:exchange@t`). A crash bumps the broker epoch -- invalidating
// every outstanding bearer token -- and tears down all brokered legs, so
// undelivered pre-crash reports die with the broker. While crashed (or
// holding a stale epoch) publishes are rejected and counted in
// `epoch_rejected`, and fetches answer nullopt so consumers degrade to
// last-known-good data instead of blocking. After a restart every tenant
// re-admits itself through ExchangeEndpoint's seeded jittered backoff
// handshake; the legs are reconstructed deterministically from the durable
// wiring record (same tokens, same trust-redacted policies, same rate
// buckets), so quota containment holds across the outage.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "eona/channel.hpp"
#include "eona/endpoint.hpp"
#include "eona/messages.hpp"
#include "eona/policy.hpp"
#include "eona/registry.hpp"
#include "sim/scheduler.hpp"

namespace eona::core {

/// Broker-enforced resource quota for one AppP tenant.
struct TenantQuota {
  /// Fraction of the exchange's egress reference this tenant's forecasts may
  /// claim per ISP. 1.0 (with the default infinite reference) never clamps.
  double egress_share = 1.0;

  friend bool operator==(const TenantQuota&, const TenantQuota&) = default;
};

/// Everything one (AppP, InfP) pairing needs: per-direction staleness,
/// policies and fault profiles (the same knobs the point-to-point wiring
/// exposed), plus the broker's trust level and I2A rate budget.
struct TenantLink {
  Duration a2i_delay = 0.0;
  Duration i2a_delay = 0.0;
  A2IPolicy a2i_policy{};
  I2APolicy i2a_policy{};
  FaultProfile a2i_fault{};
  FaultProfile i2a_fault{};
  TrustLevel trust = TrustLevel::kFull;
  RateLimit i2a_rate{};  ///< token bucket on the broker's I2A leg
};

/// Brokered N AppP x M InfP interface plane; see file header.
class Exchange {
 public:
  explicit Exchange(const ProviderRegistry& registry) : registry_(registry) {}

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// Emit channel events for every tenant glass (current and future).
  void set_event_bus(sim::EventBus* bus);

  // --- registration (valid mid-run: tenant churn) ---
  void register_appp(ProviderId id, TenantQuota quota = {});
  void register_infp(ProviderId id);
  /// Drop a tenant: unwires every leg it participates in first.
  void unregister_appp(ProviderId id);
  void unregister_infp(ProviderId id);
  [[nodiscard]] bool has_appp(ProviderId id) const {
    return appps_.count(id) > 0;
  }
  [[nodiscard]] bool has_infp(ProviderId id) const {
    return infps_.count(id) > 0;
  }
  [[nodiscard]] std::size_t appp_count() const { return appps_.size(); }
  [[nodiscard]] std::size_t infp_count() const { return infps_.size(); }

  /// Replace an AppP's quota (scenario setup).
  void set_quota(ProviderId appp, TenantQuota quota);
  [[nodiscard]] const TenantQuota& quota(ProviderId appp) const;

  /// Rescale every AppP's egress share by the current total so the shares
  /// sum to exactly 1 again. Churn hooks call this after a tenant joins or
  /// leaves mid-run, keeping the quota invariant across re-registration.
  void renormalize_quotas();
  /// Sum of all registered AppPs' egress shares.
  [[nodiscard]] double total_egress_share() const;

  /// The egress capacity the quota shares refer to (per ISP). Default is
  /// infinite: no clamp ever fires, reproducing unbrokered behaviour.
  void set_egress_reference(BitsPerSecond reference);

  /// Wire both directions between a registered AppP and InfP. Mints both
  /// bearer tokens, applies the link's trust level to its policies, and
  /// attaches the I2A leg's token bucket. Order of channel creation matches
  /// the old point-to-point wire_eona helper exactly. The link parameters
  /// are recorded durably so a post-crash reattach (and nothing else)
  /// reconstructs the identical legs.
  void wire(ProviderId appp, ProviderId infp, const TenantLink& link = {});
  /// Undo a wire(): revoke both legs, retire their tokens and stats, and
  /// erase the durable link record.
  void unwire(ProviderId appp, ProviderId infp);
  [[nodiscard]] bool wired(ProviderId appp, ProviderId infp) const {
    return links_.count({appp, infp}) > 0;
  }

  // --- broker lifecycle (ChaosEngine `crash:exchange` / `restart:exchange`) ---
  /// Broker dies: the epoch is bumped (every outstanding bearer token is now
  /// stale) and all brokered legs are torn down, losing undelivered reports.
  /// Registration, quota, and durable wiring records survive -- they are the
  /// state a real broker recovers from its registry on restart.
  void crash();
  /// Broker comes back up. No leg is restored here: tenants re-admit
  /// themselves one by one through reattach(), as the paper's opt-in
  /// registration model requires.
  void restart();
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// Current broker epoch; bumped once per crash. Endpoints holding an older
  /// epoch are fenced off until they reattach.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Publishes rejected because the broker was down or the caller's epoch
  /// was stale.
  [[nodiscard]] std::uint64_t epoch_rejected() const { return epoch_rejected_; }

  /// Re-registration handshake target: restores the tenant's *producer*-side
  /// legs (tokens, trust-redacted policies, delays, faults, rate buckets)
  /// from the durable wiring record. Idempotent -- legs already restored are
  /// left untouched, so a duplicated handshake never double-registers.
  /// Returns the current epoch on success, 0 while the broker is still down
  /// (the caller backs off and retries).
  std::uint64_t reattach(ProviderId tenant);

  // --- producer side ---
  /// AppP publishes its A2I report under `epoch`: a crashed broker or a
  /// stale epoch rejects it (counted in epoch_rejected). Otherwise the
  /// egress quota clamp runs first (at the broker, not in the tenant), then
  /// every wired InfP's channel receives the clamped report through its own
  /// policy/delay/faults. Returns whether the broker accepted the publish.
  bool publish_a2i(ProviderId appp, const A2IReport& report, TimePoint now,
                   std::uint64_t epoch);
  /// Current-epoch convenience overload (tests, benches).
  bool publish_a2i(ProviderId appp, const A2IReport& report, TimePoint now) {
    return publish_a2i(appp, report, now, epoch_);
  }
  /// InfP publishes its I2A report to every wired AppP's channel; same
  /// epoch fence as publish_a2i.
  bool publish_i2a(ProviderId infp, const I2AReport& report, TimePoint now,
                   std::uint64_t epoch);
  bool publish_i2a(ProviderId infp, const I2AReport& report, TimePoint now) {
    return publish_i2a(infp, report, now, epoch_);
  }

  // --- consumer side (the broker holds the tokens) ---
  /// nullopt while the broker is down, or while a configured leg awaits its
  /// producer's reattach; throws AccessDenied only for never-wired pairs.
  [[nodiscard]] std::optional<A2IReport> fetch_a2i(ProviderId infp,
                                                   ProviderId appp,
                                                   TimePoint now) const;
  [[nodiscard]] std::optional<I2AReport> fetch_i2a(ProviderId appp,
                                                   ProviderId infp,
                                                   TimePoint now) const;

  // --- leg introspection ---
  /// Live counters of one leg; a leg torn down by crash/churn reads as all
  /// zeros (its history is folded into total_delivery_stats()).
  [[nodiscard]] const ChannelStats& a2i_leg_stats(ProviderId appp,
                                                  ProviderId infp) const;
  [[nodiscard]] const ChannelStats& i2a_leg_stats(ProviderId infp,
                                                  ProviderId appp) const;
  /// Channel stats summed over every live leg plus every leg already retired
  /// by unwire/crash teardown (so counters survive broker churn).
  [[nodiscard]] ChannelStats total_delivery_stats() const;

  /// Publishes whose forecasts the egress quota clamp scaled down.
  [[nodiscard]] std::uint64_t clamp_count() const { return clamp_count_; }

  /// Structural exchange invariants, checked by the InvariantAuditor across
  /// every crash/restart/churn step. Returns an empty string when all hold:
  ///  * a crashed broker holds no live bearer tokens;
  ///  * every live token corresponds to a durable link record;
  ///  * every restored leg still carries exactly the trust-redacted policy
  ///    of its link record (no redacted attribute leaks on replay);
  ///  * with a finite egress reference, tenant shares sum to <= 1.
  [[nodiscard]] std::string invariant_violation() const;

 private:
  struct AppTenant {
    explicit AppTenant(ProviderId id, TenantQuota q) : glass(id), quota(q) {}
    A2IEndpoint glass;
    TenantQuota quota;
  };
  struct InfTenant {
    explicit InfTenant(ProviderId id) : glass(id) {}
    I2AEndpoint glass;
  };

  [[nodiscard]] AppTenant& require_appp(ProviderId id);
  [[nodiscard]] const AppTenant& require_appp(ProviderId id) const;
  [[nodiscard]] InfTenant& require_infp(ProviderId id);
  [[nodiscard]] const InfTenant& require_infp(ProviderId id) const;

  /// Open the A2I (and then I2A) legs of one durable link record; skips a
  /// leg whose token is already live (idempotent restore). Each leg takes
  /// the tenant whose endpoint it lives on, looked up by the caller.
  void open_a2i_leg(AppTenant& app, ProviderId infp, const TenantLink& link);
  void open_i2a_leg(ProviderId appp, InfTenant& inf, const TenantLink& link);
  /// Tear one leg down, folding its channel stats into retired_.
  void close_a2i_leg(AppTenant& app, ProviderId infp);
  void close_i2a_leg(ProviderId appp, InfTenant& inf);

  /// `report` with the tenant's per-ISP forecast totals clamped to
  /// egress_share * egress_reference; counts a clamp when anything shrank.
  [[nodiscard]] A2IReport clamp_forecasts(const AppTenant& tenant,
                                          const A2IReport& report);

  const ProviderRegistry& registry_;
  std::map<ProviderId, AppTenant> appps_;  // ordered: deterministic
  std::map<ProviderId, InfTenant> infps_;
  std::map<std::pair<ProviderId, ProviderId>, std::string> a2i_tokens_;
  std::map<std::pair<ProviderId, ProviderId>, std::string> i2a_tokens_;
  /// Durable wiring record, keyed (appp, infp): what wire() was told, and
  /// what reattach() reconstructs legs from after a crash.
  std::map<std::pair<ProviderId, ProviderId>, TenantLink> links_;
  BitsPerSecond egress_reference_ = std::numeric_limits<double>::infinity();
  std::uint64_t clamp_count_ = 0;
  std::uint64_t epoch_ = 1;
  std::uint64_t epoch_rejected_ = 0;
  bool crashed_ = false;
  ChannelStats retired_;  ///< stats of legs torn down by unwire/crash
  sim::EventBus* bus_ = nullptr;
};

/// Backoff schedule for the post-restart re-registration handshake (the
/// RobustFetcher retry discipline applied to broker reattachment). Attempts
/// start when the endpoint notices it is detached and are spaced
/// base * factor^n, jittered, capped at max_backoff -- so after the broker
/// restarts, every tenant reattaches within one capped interval.
struct ReattachPolicy {
  Duration base_backoff = 0.5;   ///< delay before the first attempt
  double backoff_factor = 2.0;   ///< growth per failed attempt
  double jitter_fraction = 0.25; ///< uniform +/- fraction on each delay
  Duration max_backoff = 8.0;    ///< attempt-interval ceiling

  /// Upper bound on restart -> reattached latency: one capped attempt
  /// interval plus its jitter allowance.
  [[nodiscard]] Duration horizon() const {
    return max_backoff * (1.0 + jitter_fraction);
  }
};

/// The handle a controller holds instead of raw channels: its identity on
/// the exchange plus the operations its side of the plane may perform. A
/// default-constructed endpoint is unbound; controllers without an exchange
/// (unit fixtures) simply skip publishing.
///
/// The endpoint also owns the tenant's half of the broker survivability
/// story: it remembers the epoch it registered under, so after a broker
/// crash its publishes are fenced (rejected + counted at the broker) and its
/// fetches answer nullopt -- the controller degrades onto last-known-good
/// data. Once armed with a scheduler, a detected detach starts a seeded
/// jittered backoff chain of `Exchange::reattach` attempts, re-admitting the
/// tenant without any central coordination.
class ExchangeEndpoint {
 public:
  ExchangeEndpoint() = default;
  ExchangeEndpoint(Exchange* exchange, ProviderId self)
      : exchange_(exchange),
        self_(self),
        epoch_(exchange != nullptr ? exchange->epoch() : 0) {}

  // Copies transfer identity only, never an armed retry chain: the Builder
  // hands endpoints to controllers by value *before* arming, and an armed
  // endpoint must stay at a stable address (its scheduled attempts capture
  // `this`).
  ExchangeEndpoint(const ExchangeEndpoint& other)
      : exchange_(other.exchange_), self_(other.self_), epoch_(other.epoch_) {}
  ExchangeEndpoint& operator=(const ExchangeEndpoint& other);
  ~ExchangeEndpoint() { disarm(); }

  [[nodiscard]] bool bound() const { return exchange_ != nullptr; }
  [[nodiscard]] ProviderId self() const { return self_; }
  [[nodiscard]] Exchange& exchange() const { return *exchange_; }

  /// True when bound, the broker is up, and our registration epoch is
  /// current: publishes will be accepted and fetches answered.
  [[nodiscard]] bool attached() const {
    return bound() && !exchange_->crashed() && epoch_ == exchange_->epoch();
  }

  /// Arm the re-registration handshake: from now on a detected detach
  /// (broker fault event or rejected publish) retries Exchange::reattach on
  /// the default ReattachPolicy's schedule, jittered from `seed`, until the
  /// broker re-admits us.
  void arm_reattach(sim::Scheduler& sched, std::uint64_t seed);
  /// Optional hook fired the moment a reattach lands (controllers republish
  /// out of band so peers recover without waiting for the next tick).
  void set_on_reattach(std::function<void(TimePoint)> hook) {
    on_reattach_ = std::move(hook);
  }
  /// Broker fault notification (controllers forward bus FaultEvents): a
  /// crash starts the backoff chain immediately; the chain's next attempt
  /// after a restart re-admits us.
  void on_broker_fault(const char* kind, TimePoint now);

  // --- reattach telemetry (scenario measurements) ---
  [[nodiscard]] std::uint64_t reattach_count() const { return reattaches_; }
  [[nodiscard]] std::uint64_t reattach_attempts() const { return attempts_total_; }
  [[nodiscard]] TimePoint last_reattach_at() const { return last_reattach_at_; }
  [[nodiscard]] Duration detached_seconds() const { return detached_seconds_; }

  // --- AppP side ---
  /// Publish under our registered epoch; false when the broker rejected it
  /// (down or stale epoch), which also kicks the reattach chain.
  bool publish_a2i(const A2IReport& report, TimePoint now) {
    bool ok = exchange_->publish_a2i(self_, report, now, epoch_);
    if (!ok) begin_reattach(now);
    return ok;
  }
  /// nullopt while detached or for unwired peers: consumers degrade to
  /// last-known-good instead of seeing broker exceptions.
  [[nodiscard]] std::optional<I2AReport> fetch_i2a(ProviderId infp,
                                                   TimePoint now) const {
    if (!attached() || !exchange_->wired(self_, infp)) return std::nullopt;
    return exchange_->fetch_i2a(self_, infp, now);
  }
  [[nodiscard]] const ChannelStats& i2a_leg_stats(ProviderId infp) const {
    return exchange_->i2a_leg_stats(infp, self_);
  }

  // --- InfP side ---
  bool publish_i2a(const I2AReport& report, TimePoint now) {
    bool ok = exchange_->publish_i2a(self_, report, now, epoch_);
    if (!ok) begin_reattach(now);
    return ok;
  }
  [[nodiscard]] std::optional<A2IReport> fetch_a2i(ProviderId appp,
                                                   TimePoint now) const {
    if (!attached() || !exchange_->wired(appp, self_)) return std::nullopt;
    return exchange_->fetch_a2i(self_, appp, now);
  }
  [[nodiscard]] const ChannelStats& a2i_leg_stats(ProviderId appp) const {
    return exchange_->a2i_leg_stats(appp, self_);
  }

 private:
  void disarm() {
    if (sched_ != nullptr) sched_->cancel(pending_);
  }
  /// Start the backoff chain if armed and not already running.
  void begin_reattach(TimePoint now);
  void attempt_reattach();
  void schedule_next_attempt();

  Exchange* exchange_ = nullptr;
  ProviderId self_;
  std::uint64_t epoch_ = 0;

  // Re-registration machinery (armed controllers only).
  sim::Scheduler* sched_ = nullptr;
  static constexpr ReattachPolicy kPolicy{};
  FaultStream rng_{0};
  std::function<void(TimePoint)> on_reattach_;
  sim::EventHandle pending_{};
  std::size_t attempt_ = 0;
  bool chain_armed_ = false;
  TimePoint detach_started_ = 0.0;

  // Telemetry.
  std::uint64_t reattaches_ = 0;
  std::uint64_t attempts_total_ = 0;
  TimePoint last_reattach_at_ = 0.0;
  Duration detached_seconds_ = 0.0;
};

}  // namespace eona::core
