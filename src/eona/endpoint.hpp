// The EONA "looking glass": each provider runs an endpoint that peers query
// for the provider's current report. Opt-in is explicit (paper §3): the
// owner authorises peers individually with bearer tokens, attaches a
// per-peer export policy, and may set a per-peer propagation delay
// (staleness) and a per-peer FaultProfile (drop/duplicate/jitter/outages).
// Everything a peer sees has passed policy + delay + faults.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "eona/channel.hpp"
#include "eona/messages.hpp"
#include "eona/policy.hpp"

namespace eona::core {

/// Generic looking-glass endpoint parameterised on report and policy types.
/// AppPs instantiate A2IEndpoint; InfPs instantiate I2AEndpoint.
template <typename Report, typename Policy>
class LookingGlass {
 public:
  explicit LookingGlass(ProviderId owner) : owner_(owner) {}

  [[nodiscard]] ProviderId owner() const { return owner_; }

  /// Emit channel events for every peer (current and future) on `bus`,
  /// labelled with this glass's report kind ("a2i"/"i2a").
  void set_event_bus(sim::EventBus* bus, const char* kind) {
    bus_ = bus;
    kind_ = kind;
    for (auto& [peer, entry] : peers_)
      entry.channel.set_event_bus(bus_, owner_, peer, kind_);
  }

  /// Opt a peer in: it may query with `token` and sees reports through
  /// `policy`, delayed by `delay` and subject to `fault` (default: ideal).
  void authorize(ProviderId peer, std::string token, Policy policy = {},
                 Duration delay = 0.0, FaultProfile fault = {}) {
    EONA_EXPECTS(!token.empty());
    auto [it, inserted] = peers_.insert_or_assign(
        peer, PeerEntry{std::move(token), policy,
                        ReportChannel<Report>(delay, std::move(fault))});
    (void)inserted;
    if (bus_ != nullptr)
      it->second.channel.set_event_bus(bus_, owner_, peer, kind_);
  }

  /// Opt a peer out again.
  void revoke(ProviderId peer) { peers_.erase(peer); }

  [[nodiscard]] bool authorized(ProviderId peer) const {
    return peers_.count(peer) > 0;
  }

  /// Change the staleness injected on a peer's channel (benches sweep this).
  void set_peer_delay(ProviderId peer, Duration delay) {
    require(peer).channel.set_delay(delay);
  }

  /// Change the fault profile injected on a peer's channel.
  void set_peer_fault(ProviderId peer, FaultProfile fault) {
    require(peer).channel.set_fault(std::move(fault));
  }

  /// Budget a peer's channel through a token bucket (broker rate limiting).
  void set_peer_rate_limit(ProviderId peer, RateLimit limit) {
    require(peer).channel.set_rate_limit(limit);
  }

  /// Delivery-health counters of one peer's channel.
  [[nodiscard]] const ChannelStats& peer_stats(ProviderId peer) const {
    return require(peer).channel.stats();
  }

  /// The export policy a peer's channel applies (auditor: verifies trust
  /// redaction survived broker re-registration).
  [[nodiscard]] const Policy& peer_policy(ProviderId peer) const {
    return require(peer).policy;
  }

  /// Delivery-health counters summed over every authorised peer.
  [[nodiscard]] ChannelStats delivery_stats() const {
    ChannelStats total;
    for (const auto& [peer, entry] : peers_) total += entry.channel.stats();
    return total;
  }

  /// Owner publishes its current report; every authorised peer's channel
  /// receives it (policy applied per peer, so different peers can see
  /// different subsets).
  void publish(const Report& report, TimePoint now) {
    ++publishes_;
    for (auto& [peer, entry] : peers_)
      entry.channel.publish(entry.policy.apply(report), now);
  }

  /// Peer queries the looking glass. Throws AccessDenied for unknown peers
  /// or bad tokens; returns nullopt when nothing is visible yet.
  [[nodiscard]] std::optional<Report> query(ProviderId peer,
                                            const std::string& token,
                                            TimePoint now) const {
    const PeerEntry& entry = require(peer);
    if (entry.token != token)
      throw AccessDenied("bad token for peer " + std::to_string(peer.value()));
    ++queries_;
    return entry.channel.fetch(now);
  }

  /// Staleness of what `peer` would currently see.
  [[nodiscard]] std::optional<Duration> staleness(ProviderId peer,
                                                  TimePoint now) const {
    return require(peer).channel.staleness(now);
  }

  [[nodiscard]] std::uint64_t publish_count() const { return publishes_; }
  [[nodiscard]] std::uint64_t query_count() const { return queries_; }

 private:
  struct PeerEntry {
    std::string token;
    Policy policy;
    ReportChannel<Report> channel;
  };

  PeerEntry& require(ProviderId peer) {
    auto it = peers_.find(peer);
    if (it == peers_.end())
      throw AccessDenied("peer " + std::to_string(peer.value()) +
                         " not opted in");
    return it->second;
  }
  const PeerEntry& require(ProviderId peer) const {
    auto it = peers_.find(peer);
    if (it == peers_.end())
      throw AccessDenied("peer " + std::to_string(peer.value()) +
                         " not opted in");
    return it->second;
  }

  ProviderId owner_;
  std::unordered_map<ProviderId, PeerEntry> peers_;
  std::uint64_t publishes_ = 0;
  mutable std::uint64_t queries_ = 0;
  sim::EventBus* bus_ = nullptr;
  const char* kind_ = "";
};

/// An AppP's A2I looking glass (InfPs query it).
using A2IEndpoint = LookingGlass<A2IReport, A2IPolicy>;
/// An InfP's I2A looking glass (AppPs query it).
using I2AEndpoint = LookingGlass<I2AReport, I2APolicy>;

}  // namespace eona::core
