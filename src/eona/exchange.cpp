#include "eona/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace eona::core {

void Exchange::set_event_bus(sim::EventBus* bus) {
  bus_ = bus;
  for (auto& [id, tenant] : appps_) tenant.glass.set_event_bus(bus_, "a2i");
  for (auto& [id, tenant] : infps_) tenant.glass.set_event_bus(bus_, "i2a");
}

void Exchange::register_appp(ProviderId id, TenantQuota quota) {
  EONA_EXPECTS(id.valid());
  if (quota.egress_share <= 0.0 || quota.egress_share > 1.0)
    throw ConfigError("exchange: egress_share must be in (0, 1]");
  auto [it, inserted] = appps_.try_emplace(id, id, quota);
  if (!inserted)
    throw ConfigError("exchange: appp " + std::to_string(id.value()) +
                      " already registered");
  if (bus_ != nullptr) it->second.glass.set_event_bus(bus_, "a2i");
}

void Exchange::register_infp(ProviderId id) {
  EONA_EXPECTS(id.valid());
  auto [it, inserted] = infps_.try_emplace(id, id);
  if (!inserted)
    throw ConfigError("exchange: infp " + std::to_string(id.value()) +
                      " already registered");
  if (bus_ != nullptr) it->second.glass.set_event_bus(bus_, "i2a");
}

void Exchange::unregister_appp(ProviderId id) {
  AppTenant& app = require_appp(id);
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->first.first == id) {
      close_a2i_leg(app, it->first.second);
      close_i2a_leg(id, require_infp(it->first.second));
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
  appps_.erase(id);
}

void Exchange::unregister_infp(ProviderId id) {
  InfTenant& inf = require_infp(id);
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->first.second == id) {
      close_a2i_leg(require_appp(it->first.first), id);
      close_i2a_leg(it->first.first, inf);
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
  infps_.erase(id);
}

void Exchange::set_quota(ProviderId appp, TenantQuota quota) {
  if (quota.egress_share <= 0.0 || quota.egress_share > 1.0)
    throw ConfigError("exchange: egress_share must be in (0, 1]");
  require_appp(appp).quota = quota;
}

const TenantQuota& Exchange::quota(ProviderId appp) const {
  return require_appp(appp).quota;
}

void Exchange::renormalize_quotas() {
  double total = total_egress_share();
  if (appps_.empty() || total <= 0.0) return;
  for (auto& [id, tenant] : appps_) tenant.quota.egress_share /= total;
}

double Exchange::total_egress_share() const {
  double total = 0.0;
  for (const auto& [id, tenant] : appps_) total += tenant.quota.egress_share;
  return total;
}

void Exchange::set_egress_reference(BitsPerSecond reference) {
  if (reference <= 0.0)
    throw ConfigError("exchange: egress reference must be > 0");
  egress_reference_ = reference;
}

void Exchange::open_a2i_leg(AppTenant& app, ProviderId infp,
                            const TenantLink& link) {
  const ProviderId appp = app.glass.owner();
  if (a2i_tokens_.count({appp, infp}) > 0) return;  // already live
  std::string token = registry_.mint_token(appp, infp);
  app.glass.authorize(
      infp, token, apply_trust(link.trust, link.a2i_policy), link.a2i_delay,
      link.a2i_fault);
  a2i_tokens_[{appp, infp}] = std::move(token);
}

void Exchange::open_i2a_leg(ProviderId appp, InfTenant& inf,
                            const TenantLink& link) {
  const ProviderId infp = inf.glass.owner();
  if (i2a_tokens_.count({infp, appp}) > 0) return;  // already live
  std::string token = registry_.mint_token(infp, appp);
  inf.glass.authorize(appp, token, apply_trust(link.trust, link.i2a_policy),
                      link.i2a_delay, link.i2a_fault);
  if (!link.i2a_rate.unlimited())
    inf.glass.set_peer_rate_limit(appp, link.i2a_rate);
  i2a_tokens_[{infp, appp}] = std::move(token);
}

void Exchange::close_a2i_leg(AppTenant& app, ProviderId infp) {
  auto token = a2i_tokens_.find({app.glass.owner(), infp});
  if (token == a2i_tokens_.end()) return;
  retired_ += app.glass.peer_stats(infp);
  app.glass.revoke(infp);
  a2i_tokens_.erase(token);
}

void Exchange::close_i2a_leg(ProviderId appp, InfTenant& inf) {
  auto token = i2a_tokens_.find({inf.glass.owner(), appp});
  if (token == i2a_tokens_.end()) return;
  retired_ += inf.glass.peer_stats(appp);
  inf.glass.revoke(appp);
  i2a_tokens_.erase(token);
}

void Exchange::wire(ProviderId appp, ProviderId infp, const TenantLink& link) {
  // Both tenants are looked up before either leg opens, so an unknown id
  // leaves nothing half-wired.
  AppTenant& app = require_appp(appp);
  InfTenant& inf = require_infp(infp);
  // Same sequence as the pre-broker scenarios::wire_eona helper: mint the
  // A2I token and open that leg, then the I2A token and leg. Trust-level
  // redaction composes onto the configured base policies here, once.
  open_a2i_leg(app, infp, link);
  open_i2a_leg(appp, inf, link);
  links_[{appp, infp}] = link;
}

void Exchange::unwire(ProviderId appp, ProviderId infp) {
  auto it = links_.find({appp, infp});
  if (it == links_.end())
    throw ConfigError("exchange: no link " + std::to_string(appp.value()) +
                      " <-> " + std::to_string(infp.value()) + " to unwire");
  close_a2i_leg(require_appp(appp), infp);
  close_i2a_leg(appp, require_infp(infp));
  links_.erase(it);
}

void Exchange::crash() {
  if (crashed_) return;
  crashed_ = true;
  // Every broker-minted token dies with the broker: one epoch bump fences
  // all of them, and the legs themselves (undelivered reports included) are
  // torn down. The durable records -- registration, quotas, links_ -- are
  // what a restarted broker recovers from its registry.
  ++epoch_;
  for (const auto& [key, link] : links_) {
    close_a2i_leg(require_appp(key.first), key.second);
    close_i2a_leg(key.first, require_infp(key.second));
  }
}

void Exchange::restart() {
  crashed_ = false;
}

std::uint64_t Exchange::reattach(ProviderId tenant) {
  if (crashed_) return 0;  // still down: caller backs off and retries
  bool known = false;
  if (auto app = appps_.find(tenant); app != appps_.end()) {
    known = true;
    for (const auto& [key, link] : links_)
      if (key.first == tenant) open_a2i_leg(app->second, key.second, link);
  }
  if (auto inf = infps_.find(tenant); inf != infps_.end()) {
    known = true;
    for (const auto& [key, link] : links_)
      if (key.second == tenant) open_i2a_leg(key.first, inf->second, link);
  }
  if (!known)
    throw NotFoundError("exchange: tenant " + std::to_string(tenant.value()) +
                        " not registered");
  return epoch_;
}

A2IReport Exchange::clamp_forecasts(const AppTenant& tenant,
                                    const A2IReport& report) {
  // Allowance per ISP: this tenant's share of the exchange's egress
  // reference. Infinite reference (the default) never clamps.
  const BitsPerSecond allowance =
      tenant.quota.egress_share * egress_reference_;
  if (!std::isfinite(allowance)) return report;

  std::map<IspId, BitsPerSecond> claimed;
  for (const TrafficForecast& f : report.forecasts)
    claimed[f.isp] += f.expected_rate;

  bool clamped = false;
  A2IReport out = report;
  for (TrafficForecast& f : out.forecasts) {
    BitsPerSecond total = claimed[f.isp];
    if (total <= allowance) continue;
    f.expected_rate *= allowance / total;
    clamped = true;
  }
  if (clamped) ++clamp_count_;
  return out;
}

bool Exchange::publish_a2i(ProviderId appp, const A2IReport& report,
                           TimePoint now, std::uint64_t epoch) {
  if (crashed_ || epoch != epoch_) {
    ++epoch_rejected_;
    return false;
  }
  auto it = appps_.find(appp);
  if (it == appps_.end()) return false;  // churned away mid-run
  it->second.glass.publish(clamp_forecasts(it->second, report), now);
  return true;
}

bool Exchange::publish_i2a(ProviderId infp, const I2AReport& report,
                           TimePoint now, std::uint64_t epoch) {
  if (crashed_ || epoch != epoch_) {
    ++epoch_rejected_;
    return false;
  }
  auto it = infps_.find(infp);
  if (it == infps_.end()) return false;  // churned away mid-run
  it->second.glass.publish(report, now);
  return true;
}

std::optional<A2IReport> Exchange::fetch_a2i(ProviderId infp, ProviderId appp,
                                             TimePoint now) const {
  if (crashed_) return std::nullopt;  // broker down: consumers fall back
  auto token = a2i_tokens_.find({appp, infp});
  if (token == a2i_tokens_.end()) {
    // A configured leg whose producer has not reattached yet answers empty;
    // a pair that was never wired is a caller bug, as before.
    if (wired(appp, infp)) return std::nullopt;
    throw AccessDenied("exchange: no a2i leg " + std::to_string(appp.value()) +
                       " -> " + std::to_string(infp.value()));
  }
  return require_appp(appp).glass.query(infp, token->second, now);
}

std::optional<I2AReport> Exchange::fetch_i2a(ProviderId appp, ProviderId infp,
                                             TimePoint now) const {
  if (crashed_) return std::nullopt;
  auto token = i2a_tokens_.find({infp, appp});
  if (token == i2a_tokens_.end()) {
    if (wired(appp, infp)) return std::nullopt;
    throw AccessDenied("exchange: no i2a leg " + std::to_string(infp.value()) +
                       " -> " + std::to_string(appp.value()));
  }
  return require_infp(infp).glass.query(appp, token->second, now);
}

const ChannelStats& Exchange::a2i_leg_stats(ProviderId appp,
                                            ProviderId infp) const {
  // A leg torn down by crash/churn has no live counters (its history lives
  // in retired_); health snapshots taken mid-outage must not throw.
  static const ChannelStats kNoLeg{};
  if (a2i_tokens_.count({appp, infp}) == 0) return kNoLeg;
  return require_appp(appp).glass.peer_stats(infp);
}

const ChannelStats& Exchange::i2a_leg_stats(ProviderId infp,
                                            ProviderId appp) const {
  static const ChannelStats kNoLeg{};
  if (i2a_tokens_.count({infp, appp}) == 0) return kNoLeg;
  return require_infp(infp).glass.peer_stats(appp);
}

ChannelStats Exchange::total_delivery_stats() const {
  ChannelStats total = retired_;
  for (const auto& [id, tenant] : appps_) total += tenant.glass.delivery_stats();
  for (const auto& [id, tenant] : infps_) total += tenant.glass.delivery_stats();
  return total;
}

std::string Exchange::invariant_violation() const {
  if (crashed_ && (!a2i_tokens_.empty() || !i2a_tokens_.empty()))
    return "exchange: bearer token outstanding while the broker is crashed";
  for (const auto& [key, token] : a2i_tokens_)
    if (links_.count(key) == 0)
      return "exchange: live a2i token without a durable link record";
  for (const auto& [key, token] : i2a_tokens_)
    if (links_.count({key.second, key.first}) == 0)
      return "exchange: live i2a token without a durable link record";
  for (const auto& [key, link] : links_) {
    // A restored leg must carry exactly the trust-redacted policy recorded
    // at wire() time: a reattach that replayed the raw base policy would
    // leak redacted attributes.
    if (a2i_tokens_.count(key) > 0) {
      const AppTenant& app = require_appp(key.first);
      if (!(app.glass.peer_policy(key.second) ==
            apply_trust(link.trust, link.a2i_policy)))
        return "exchange: a2i leg policy drifted from its trust redaction";
    }
    if (i2a_tokens_.count({key.second, key.first}) > 0) {
      const InfTenant& inf = require_infp(key.second);
      if (!(inf.glass.peer_policy(key.first) ==
            apply_trust(link.trust, link.i2a_policy)))
        return "exchange: i2a leg policy drifted from its trust redaction";
    }
  }
  if (std::isfinite(egress_reference_) &&
      total_egress_share() > 1.0 + 1e-9)
    return "exchange: tenant egress shares sum to " +
           std::to_string(total_egress_share()) + " > 1";
  return {};
}

Exchange::AppTenant& Exchange::require_appp(ProviderId id) {
  auto it = appps_.find(id);
  if (it == appps_.end())
    throw NotFoundError("exchange: appp " + std::to_string(id.value()) +
                        " not registered");
  return it->second;
}

const Exchange::AppTenant& Exchange::require_appp(ProviderId id) const {
  auto it = appps_.find(id);
  if (it == appps_.end())
    throw NotFoundError("exchange: appp " + std::to_string(id.value()) +
                        " not registered");
  return it->second;
}

Exchange::InfTenant& Exchange::require_infp(ProviderId id) {
  auto it = infps_.find(id);
  if (it == infps_.end())
    throw NotFoundError("exchange: infp " + std::to_string(id.value()) +
                        " not registered");
  return it->second;
}

const Exchange::InfTenant& Exchange::require_infp(ProviderId id) const {
  auto it = infps_.find(id);
  if (it == infps_.end())
    throw NotFoundError("exchange: infp " + std::to_string(id.value()) +
                        " not registered");
  return it->second;
}

// --- ExchangeEndpoint -------------------------------------------------------

ExchangeEndpoint& ExchangeEndpoint::operator=(const ExchangeEndpoint& other) {
  if (this == &other) return *this;
  disarm();
  exchange_ = other.exchange_;
  self_ = other.self_;
  epoch_ = other.epoch_;
  sched_ = nullptr;
  on_reattach_ = nullptr;
  attempt_ = 0;
  chain_armed_ = false;
  return *this;
}

void ExchangeEndpoint::arm_reattach(sim::Scheduler& sched, std::uint64_t seed) {
  sched_ = &sched;
  rng_ = FaultStream(seed);
}

void ExchangeEndpoint::on_broker_fault(const char* kind, TimePoint now) {
  if (std::strcmp(kind, "exchange_crash") == 0) begin_reattach(now);
  // A restart needs no push: the running chain's next attempt lands it. An
  // endpoint that somehow missed the crash event re-arms off its first
  // rejected publish instead.
}

void ExchangeEndpoint::begin_reattach(TimePoint now) {
  if (sched_ == nullptr || chain_armed_ || attached()) return;
  chain_armed_ = true;
  detach_started_ = now;
  attempt_ = 0;
  schedule_next_attempt();
}

void ExchangeEndpoint::attempt_reattach() {
  ++attempts_total_;
  std::uint64_t epoch = exchange_->reattach(self_);
  if (epoch == 0) {  // broker still down
    schedule_next_attempt();
    return;
  }
  TimePoint now = sched_->now();
  epoch_ = epoch;
  chain_armed_ = false;
  ++reattaches_;
  last_reattach_at_ = now;
  detached_seconds_ += now - detach_started_;
  if (on_reattach_) on_reattach_(now);
}

void ExchangeEndpoint::schedule_next_attempt() {
  Duration backoff = kPolicy.base_backoff;
  for (std::size_t i = 0; i < attempt_ && backoff < kPolicy.max_backoff; ++i)
    backoff *= kPolicy.backoff_factor;
  backoff = std::min(backoff, kPolicy.max_backoff);
  if (kPolicy.jitter_fraction > 0.0)
    backoff *= 1.0 + kPolicy.jitter_fraction * (2.0 * rng_.uniform(1.0) - 1.0);
  ++attempt_;
  pending_ =
      sched_->schedule_after(backoff, [this] { attempt_reattach(); });
}

}  // namespace eona::core
