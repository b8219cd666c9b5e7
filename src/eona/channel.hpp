// Report channel with propagation delay: models the inherent staleness of
// EONA data (§5 "dealing with staleness"). A report published at time t
// becomes visible to queries at t + delay; queries always see the newest
// visible report. The staleness bench sweeps `delay` from zero to minutes.
//
// The channel may additionally carry a FaultProfile (fault.hpp): publishes
// can be dropped or duplicated, deliveries gain jittered extra delay, and
// scheduled outage windows take the whole channel down (publishes lost,
// queries unanswered). An ideal profile leaves behaviour byte-identical to
// the unfaulted channel.
#pragma once

#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "eona/fault.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"

namespace eona::core {

/// Publish-rate budget for one broker leg. Default is unlimited, which is
/// byte-identical to a channel without a bucket (no draws, no suppression).
struct RateLimit {
  /// Sustained publishes per second the leg may carry; infinity = unlimited.
  double rate = std::numeric_limits<double>::infinity();
  /// Burst allowance (bucket depth, in publishes).
  double burst = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool unlimited() const {
    return !std::isfinite(rate) || !std::isfinite(burst);
  }

  void validate() const {
    if (rate <= 0.0) throw ConfigError("rate limit: rate must be > 0");
    if (burst < 1.0) throw ConfigError("rate limit: burst must be >= 1");
  }

  friend bool operator==(const RateLimit&, const RateLimit&) = default;
};

/// Deterministic token bucket (no randomness: refill is pure arithmetic on
/// the simulation clock, so rate-limited runs replay bit-for-bit).
class TokenBucket {
 public:
  TokenBucket() = default;
  explicit TokenBucket(RateLimit limit) : limit_(limit) {
    if (!limit_.unlimited()) {
      limit_.validate();
      tokens_ = limit_.burst;
    }
  }

  /// Take one token at `now`; false when the bucket is dry.
  bool try_take(TimePoint now) {
    if (limit_.unlimited()) return true;
    if (primed_) {
      tokens_ = std::min(limit_.burst, tokens_ + (now - last_) * limit_.rate);
    }
    last_ = now;
    primed_ = true;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  RateLimit limit_;
  double tokens_ = 0.0;
  TimePoint last_ = 0.0;
  bool primed_ = false;
};

/// Delayed-visibility single-producer channel of reports of type T.
template <typename T>
class ReportChannel {
 public:
  explicit ReportChannel(Duration delay = 0.0, FaultProfile fault = {})
      : delay_(delay), fault_(std::move(fault)), stream_(fault_.seed) {
    EONA_EXPECTS(delay >= 0.0);
    fault_.validate();
  }

  [[nodiscard]] Duration delay() const { return delay_; }
  void set_delay(Duration delay) {
    EONA_EXPECTS(delay >= 0.0);
    delay_ = delay;
  }

  [[nodiscard]] const FaultProfile& fault() const { return fault_; }
  /// Replace the fault profile (validates; restarts the fault stream).
  void set_fault(FaultProfile fault) {
    fault.validate();
    fault_ = std::move(fault);
    stream_ = FaultStream(fault_.seed);
  }

  /// Budget publishes through a token bucket (broker-side rate limiting).
  /// The default unlimited bucket leaves the channel byte-identical.
  void set_rate_limit(RateLimit limit) { bucket_ = TokenBucket(limit); }

  /// Emit publish/drop/delivery events on `bus`, labelled with the channel's
  /// producer/consumer pair and report kind ("a2i"/"i2a"). Observational
  /// only; delivery behaviour is identical with or without a bus.
  void set_event_bus(sim::EventBus* bus, ProviderId from, ProviderId to,
                     const char* kind) {
    bus_ = bus;
    from_ = from;
    to_ = to;
    kind_ = kind;
  }

  /// Publish a report at time `now`. Subject to the fault profile: the
  /// delivery may be dropped (lost for good), duplicated, or delayed extra.
  void publish(T report, TimePoint now) {
    EONA_EXPECTS(history_.empty() || now >= history_.back().published_at);
    ++stats_.published;
    if (bus_ != nullptr)
      bus_->publish(sim::ReportPublishedEvent{now, from_, to_, kind_,
                                              stats_.published});
    // Broker-side budget: a dry bucket suppresses the publish before any
    // fault processing, so no fault-stream draw is consumed for it.
    if (!bucket_.try_take(now)) {
      ++stats_.rate_limited;
      return;
    }
    if (fault_.in_outage(now)) {
      ++stats_.dropped;  // the endpoint is down; the report is never queued
      if (bus_ != nullptr)
        bus_->publish(sim::ReportDroppedEvent{now, from_, to_, kind_, true});
      return;
    }
    if (fault_.drop_rate > 0.0 && stream_.chance(fault_.drop_rate)) {
      ++stats_.dropped;
      if (bus_ != nullptr)
        bus_->publish(sim::ReportDroppedEvent{now, from_, to_, kind_, false});
      return;
    }
    bool duplicate = fault_.duplicate_rate > 0.0 &&
                     stream_.chance(fault_.duplicate_rate);
    deliver(report, now);
    if (duplicate) {
      deliver(std::move(report), now);  // independent jitter per copy
      ++stats_.duplicated;
    }
    // Keep only what queries can still distinguish: everything older than
    // the newest visible entry will never be returned again.
    trim(now);
  }

  /// Newest report visible at `now` (i.e. whose delivery time, including any
  /// jitter, is at or before now). nullopt when none is visible yet, or when
  /// `now` falls inside an outage window (the endpoint does not answer).
  [[nodiscard]] std::optional<T> fetch(TimePoint now) const {
    if (fault_.in_outage(now)) return std::nullopt;
    const Entry* best = nullptr;
    for (const Entry& e : history_)
      if (visible_at(e) <= now) best = &e;
    if (!best) return std::nullopt;
    return best->report;
  }

  /// Age of the report `fetch(now)` would return; nullopt when none.
  [[nodiscard]] std::optional<Duration> staleness(TimePoint now) const {
    if (fault_.in_outage(now)) return std::nullopt;
    const Entry* best = nullptr;
    for (const Entry& e : history_)
      if (visible_at(e) <= now) best = &e;
    if (!best) return std::nullopt;
    return now - best->published_at;
  }

  /// Delivery-health counters for this channel.
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }

 private:
  struct Entry {
    TimePoint published_at;
    Duration extra_delay;  ///< fault-injected jitter on top of delay_
    T report;
  };

  [[nodiscard]] TimePoint visible_at(const Entry& e) const {
    return e.published_at + delay_ + e.extra_delay;
  }

  void deliver(T report, TimePoint now) {
    Duration extra = fault_.max_extra_delay > 0.0
                         ? stream_.uniform(fault_.max_extra_delay)
                         : 0.0;
    history_.push_back(Entry{now, extra, std::move(report)});
    ++stats_.delivered;
    if (bus_ != nullptr)
      bus_->publish(
          sim::ReportDeliveredEvent{now, from_, to_, kind_, delay_ + extra});
  }

  void trim(TimePoint now) {
    // Drop entries strictly older than the newest one that is already
    // visible -- fetch() can never return them. (Entries queued after the
    // newest visible one may become visible later and survive.)
    std::size_t newest_visible = history_.size();
    for (std::size_t i = 0; i < history_.size(); ++i)
      if (visible_at(history_[i]) <= now) newest_visible = i;
    if (newest_visible == history_.size()) return;
    while (newest_visible > 0) {
      history_.pop_front();
      --newest_visible;
    }
  }

  Duration delay_;
  FaultProfile fault_;
  FaultStream stream_;
  TokenBucket bucket_;
  std::deque<Entry> history_;
  ChannelStats stats_;

  sim::EventBus* bus_ = nullptr;
  ProviderId from_;
  ProviderId to_;
  const char* kind_ = "";
};

}  // namespace eona::core
