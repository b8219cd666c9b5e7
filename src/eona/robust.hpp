// Query-side robustness for EONA consumers (§5: control logics "must be
// designed to be robust against" degraded interface data).
//
// A RobustFetcher wraps one subscription's fetch path with:
//  * bounded retry -- when the tick's fetch finds nothing (or only stale
//    data), a chain of up to max_retries re-fetches is scheduled with
//    exponential backoff + jitter, harvesting late (jittered/duplicated)
//    deliveries and riding out short outages between control ticks;
//  * a freshness deadline -- a fetched report older than this is *served*
//    but declared stale, so the consumer can degrade gracefully (e.g. widen
//    its dampening hysteresis) instead of trusting old data blindly;
//  * last-known-good fallback -- the newest report ever fetched is retained
//    and served while the channel yields nothing.
//
// The default RetryPolicy (no retries, infinite freshness) reproduces the
// naive single-fetch-per-tick behaviour exactly.
//
// A ReportFeed is the one consumer path built on it: everything a
// controller needs to read the other side's reports (AppP: I2A; InfP: A2I)
// from every producer it subscribes to.
//
// EndpointHealth extends the same philosophy to *delivery* endpoints: a
// consumer that just watched a fetch die on some endpoint should back off
// from it (exponentially in the consecutive-failure count) instead of
// hammering a dead server, and should forgive it after one success.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "eona/fault.hpp"
#include "eona/messages.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/delivery_health.hpp"

namespace eona::core {

/// How hard a consumer works to get fresh data out of a failable channel.
struct RetryPolicy {
  std::size_t max_retries = 0;   ///< extra fetch attempts after a tick's miss
  Duration base_backoff = 0.5;   ///< delay before the first retry
  /// A report older than this is served as *stale*; infinity = never stale.
  Duration freshness_deadline = std::numeric_limits<double>::infinity();

  void validate() const {
    if (base_backoff <= 0.0)
      throw ConfigError("retry: base_backoff must be > 0");
    if (freshness_deadline <= 0.0)
      throw ConfigError("retry: freshness_deadline must be > 0");
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// Consumer-side delivery-health counters for one subscription.
struct FetchStats {
  std::uint64_t attempts = 0;      ///< fetches issued (ticks + retries)
  std::uint64_t retries = 0;       ///< scheduled backoff re-fetches
  std::uint64_t fresh_hits = 0;    ///< fetches that returned fresh data
  std::uint64_t stale_hits = 0;    ///< fetches that returned only stale data
  std::uint64_t misses = 0;        ///< fetches that returned nothing

  FetchStats& operator+=(const FetchStats& other) {
    attempts += other.attempts;
    retries += other.retries;
    fresh_hits += other.fresh_hits;
    stale_hits += other.stale_hits;
    misses += other.misses;
    return *this;
  }
};

/// Robust wrapper around one subscription. `Report` must expose a
/// `generated_at` TimePoint (both A2IReport and I2AReport do).
template <typename Report>
class RobustFetcher {
 public:
  using Fetch = std::function<std::optional<Report>(TimePoint)>;

  /// `fetch` performs one raw query (may return nullopt); `on_update` (may be
  /// null) fires whenever a retry lands a newer report than previously held,
  /// so the owning controller can refresh its merged view between ticks.
  RobustFetcher(sim::Scheduler& sched, Fetch fetch, RetryPolicy policy,
                std::uint64_t seed, std::function<void()> on_update = nullptr)
      : sched_(sched),
        fetch_(std::move(fetch)),
        policy_(policy),
        stream_(seed),
        on_update_(std::move(on_update)) {
    EONA_EXPECTS(fetch_ != nullptr);
    policy_.validate();
  }

  RobustFetcher(const RobustFetcher&) = delete;
  RobustFetcher& operator=(const RobustFetcher&) = delete;
  ~RobustFetcher() { sched_.cancel(pending_); }

  /// Control-tick entry point: abandon any in-flight retry chain and attempt
  /// a fetch; on a miss or stale-only result, start a new backoff chain.
  void poll() {
    sched_.cancel(pending_);
    attempt_ = 0;
    attempt(/*is_retry=*/false);
  }

  /// Last-known-good report (freshest ever fetched); nullopt before any hit.
  [[nodiscard]] const std::optional<Report>& report() const { return best_; }

  /// True while no held report is within the freshness deadline: the
  /// consumer is serving stale data (or none) and should degrade gracefully.
  [[nodiscard]] bool stale(TimePoint now) const {
    return !best_ || now - best_->generated_at > policy_.freshness_deadline;
  }

  [[nodiscard]] const FetchStats& stats() const { return stats_; }

 private:
  void attempt(bool is_retry) {
    TimePoint now = sched_.now();
    ++stats_.attempts;
    if (is_retry) ++stats_.retries;
    std::optional<Report> got = fetch_(now);
    bool improved = false;
    if (got) {
      if (!best_ || got->generated_at > best_->generated_at) {
        best_ = std::move(got);
        improved = true;
      }
      if (now - best_->generated_at <= policy_.freshness_deadline)
        ++stats_.fresh_hits;
      else
        ++stats_.stale_hits;
    } else {
      ++stats_.misses;
    }
    if (improved && is_retry && on_update_) on_update_();
    // Fresh data ends the chain; otherwise keep trying, bounded.
    if (!stale(now)) return;
    if (attempt_ >= policy_.max_retries) return;
    Duration backoff = policy_.base_backoff;
    for (std::size_t i = 0; i < attempt_; ++i) backoff *= kBackoffFactor;
    backoff *= 1.0 + kJitterFraction * (2.0 * stream_.uniform(1.0) - 1.0);
    ++attempt_;
    pending_ = sched_.schedule_after(backoff,
                                     [this] { attempt(/*is_retry=*/true); });
  }

  /// Each further retry waits this much longer than the one before.
  static constexpr double kBackoffFactor = 2.0;
  /// Uniform +/- fraction of jitter on each backoff.
  static constexpr double kJitterFraction = 0.25;

  sim::Scheduler& sched_;
  Fetch fetch_;
  RetryPolicy policy_;
  FaultStream stream_;
  std::function<void()> on_update_;
  std::optional<Report> best_;
  FetchStats stats_;
  sim::EventHandle pending_;
  std::size_t attempt_ = 0;
};

/// One controller's consumer path for the reports it reads (the AppP reads
/// I2A, the InfP reads A2I): a RobustFetcher per subscribed producer, the
/// merged view the control logic reads, its stale flag, the fetch counters
/// (kept when a producer unsubscribes) and the delivery-health accumulator.
/// `Report` needs a `generated_at` TimePoint and a
/// `merge(Report& into, const Report& from)` overload (messages.hpp).
template <typename Report>
class ReportFeed {
 public:
  /// One raw query of a producer's report (may return nullopt).
  using Fetch = std::function<std::optional<Report>(ProviderId, TimePoint)>;
  /// The producer-side channel counters of the leg from a producer.
  using LegStats = std::function<const ChannelStats&(ProviderId)>;

  /// `kind` labels the ReportServedEvents ("i2a"/"a2i"). With `robust`
  /// false a tick reads each producer once and the view holds only what
  /// that tick returned. Each subscription's jitter seed is derived from
  /// `consumer`, `seed_salt` and the subscription's position.
  ReportFeed(sim::Scheduler& sched, ProviderId consumer, const char* kind,
             bool robust, RetryPolicy policy, std::uint64_t seed_salt,
             Fetch fetch, LegStats leg_stats)
      : sched_(sched),
        consumer_(consumer),
        kind_(kind),
        robust_(robust),
        policy_(policy),
        seed_salt_(seed_salt),
        fetch_(std::move(fetch)),
        leg_stats_(std::move(leg_stats)) {
    EONA_EXPECTS(fetch_ != nullptr && leg_stats_ != nullptr);
  }

  ReportFeed(const ReportFeed&) = delete;
  ReportFeed& operator=(const ReportFeed&) = delete;

  /// Each served tick is also published as a ReportServedEvent on `bus`
  /// (may be null) for traces and the telemetry store.
  void set_event_bus(sim::EventBus* bus) { bus_ = bus; }

  void subscribe(ProviderId producer) {
    // Deterministic per-subscription seed: backoff jitter must not depend on
    // subscription order elsewhere or on any workload randomness.
    std::uint64_t seed = sim::splitmix64(
        consumer_.value() ^ (subscriptions_.size() + 1) * seed_salt_);
    subscriptions_.push_back(Subscription{
        producer, std::make_unique<RobustFetcher<Report>>(
                      sched_,
                      [this, producer](TimePoint now) {
                        return fetch_(producer, now);
                      },
                      policy_, seed, [this] { remerge(); })});
  }

  /// Drop a producer: its fetcher dies, its data leaves the view, and its
  /// fetch counters stay in health().
  void unsubscribe(ProviderId producer) {
    auto it = std::find_if(
        subscriptions_.begin(), subscriptions_.end(),
        [producer](const Subscription& s) { return s.producer == producer; });
    if (it == subscriptions_.end())
      throw NotFoundError(std::string(kind_) + " consumer " +
                          std::to_string(consumer_.value()) +
                          ": no subscription to producer " +
                          std::to_string(producer.value()));
    history_ += it->fetcher->stats();
    subscriptions_.erase(it);
    // Rebuild from scratch: the departed producer's last-known-good data
    // must not linger.
    view_.reset();
    remerge();
  }

  /// One control tick: fetch from every producer, rebuild the view, set the
  /// stale flag and record the age served. Returns false, leaving the stale
  /// flag alone, when nothing is subscribed.
  bool refresh() {
    TimePoint now = sched_.now();
    if (robust_) {
      for (auto& sub : subscriptions_) sub.fetcher->poll();
      remerge();
    } else {
      // Naive consumer: trust only what this tick's fetches returned. A tick
      // where every producer misses (drop streak, outage) goes blind.
      std::optional<Report> merged;
      for (const auto& sub : subscriptions_) {
        ++history_.attempts;
        std::optional<Report> report = fetch_(sub.producer, now);
        if (!report) {
          ++history_.misses;
          continue;
        }
        ++history_.fresh_hits;
        fold(merged, std::move(*report));
      }
      view_ = std::move(merged);
    }

    if (subscriptions_.empty()) return false;
    // The view is as new as the newest report any fetcher holds, so in
    // robust mode this reads "every fetcher is stale".
    stale_ = !view_ || now - view_->generated_at > policy_.freshness_deadline;
    if (view_) {
      Duration age = now - view_->generated_at;
      delivery_.observe_serve(age, stale_);
      if (bus_ != nullptr)
        bus_->publish(sim::ReportServedEvent{now, consumer_, kind_, age,
                                             stale_});
    }
    return true;
  }

  /// Every producer's newest report merged; nullopt until the first one
  /// arrives. Refreshed each tick and, with retries, whenever a backoff
  /// re-fetch lands newer data.
  [[nodiscard]] const std::optional<Report>& view() const { return view_; }

  /// True while no producer's data is within the freshness deadline (always
  /// false before the first tick).
  [[nodiscard]] bool stale() const { return stale_; }

  /// Producer-side channel counters + fetch counters + staleness quantile.
  [[nodiscard]] telemetry::DeliveryHealthSnapshot health() const {
    telemetry::DeliveryHealthSnapshot s = delivery_.snapshot();
    FetchStats fetches = history_;
    for (const auto& sub : subscriptions_) {
      fetches += sub.fetcher->stats();
      const ChannelStats& ch = leg_stats_(sub.producer);
      s.publishes += ch.published;
      s.deliveries += ch.delivered;
      s.drops += ch.dropped;
      s.duplicates += ch.duplicated;
    }
    s.fetch_attempts = fetches.attempts;
    s.retries = fetches.retries;
    s.fresh_hits = fetches.fresh_hits;
    s.stale_hits = fetches.stale_hits;
    s.misses = fetches.misses;
    return s;
  }

 private:
  struct Subscription {
    ProviderId producer;
    std::unique_ptr<RobustFetcher<Report>> fetcher;
  };

  static void fold(std::optional<Report>& merged, Report report) {
    if (merged)
      merge(*merged, report);
    else
      merged = std::move(report);
  }

  /// Rebuild the view from the fetchers' last-known-good reports; keeps the
  /// old view when no fetcher holds one.
  void remerge() {
    std::optional<Report> merged;
    for (const auto& sub : subscriptions_)
      if (sub.fetcher->report()) fold(merged, *sub.fetcher->report());
    if (merged) view_ = std::move(merged);
  }

  sim::Scheduler& sched_;
  ProviderId consumer_;
  const char* kind_;
  bool robust_;
  RetryPolicy policy_;
  std::uint64_t seed_salt_;
  Fetch fetch_;
  LegStats leg_stats_;
  sim::EventBus* bus_ = nullptr;
  std::vector<Subscription> subscriptions_;
  std::optional<Report> view_;
  bool stale_ = false;
  /// Naive-mode fetches and the counters of unsubscribed producers.
  FetchStats history_;
  telemetry::DeliveryHealth delivery_;
};

/// Per-endpoint failure/backoff tracker for health-checked re-selection.
///
/// Endpoints are caller-packed keys (the AppP uses cdn << 32 | server). A
/// failure opens a hold-down window of base_backoff * factor^(n-1) for n
/// consecutive failures (capped); while held down, available() is false and
/// selection logic should prefer another endpoint -- but MAY still use a
/// held-down one when nothing else is live (better a maybe-dead server than
/// certain failure). One success fully forgives the endpoint.
class EndpointHealth {
 public:
  struct Policy {
    Duration base_backoff = 2.0;  ///< hold-down after the first failure
    double backoff_factor = 2.0;  ///< growth per consecutive failure
    Duration max_backoff = 60.0;  ///< hold-down ceiling
  };

  void record_failure(std::uint64_t endpoint, TimePoint now) {
    Entry& e = entries_[endpoint];
    ++e.consecutive_failures;
    // Failures landing while the endpoint is already held down (selection
    // logic MAY still use it when nothing else is live) must not re-arm the
    // hold: each straggler would push held_until forward forever and an
    // all-unhealthy fleet would never be probed again. Counting the failure
    // above keeps the *next* post-expiry hold at full strength; the window
    // itself only ever extends when a failure lands on an available
    // endpoint, so a probe opens at least once per max_backoff.
    if (now < e.held_until) return;
    Duration hold = policy_.base_backoff;
    for (std::uint64_t i = 1;
         i < e.consecutive_failures && hold < policy_.max_backoff; ++i)
      hold *= policy_.backoff_factor;
    e.held_until = now + std::min(hold, policy_.max_backoff);
  }

  /// A delivered fetch on the endpoint: forgiven entirely.
  void record_success(std::uint64_t endpoint) { entries_.erase(endpoint); }

  /// False while the endpoint is inside its failure hold-down window.
  [[nodiscard]] bool available(std::uint64_t endpoint, TimePoint now) const {
    auto it = entries_.find(endpoint);
    return it == entries_.end() || now >= it->second.held_until;
  }

  [[nodiscard]] std::uint64_t consecutive_failures(
      std::uint64_t endpoint) const {
    auto it = entries_.find(endpoint);
    return it == entries_.end() ? 0 : it->second.consecutive_failures;
  }

 private:
  struct Entry {
    std::uint64_t consecutive_failures = 0;
    TimePoint held_until = 0.0;
  };

  Policy policy_;  ///< always the default schedule
  std::map<std::uint64_t, Entry> entries_;  // ordered: deterministic
};

}  // namespace eona::core
