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
// EndpointHealth extends the same philosophy to *delivery* endpoints: a
// consumer that just watched a fetch die on some endpoint should back off
// from it (exponentially in the consecutive-failure count) instead of
// hammering a dead server, and should forgive it after one success.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "eona/fault.hpp"
#include "sim/scheduler.hpp"

namespace eona::core {

/// How hard a consumer works to get fresh data out of a failable channel.
struct RetryPolicy {
  std::size_t max_retries = 0;   ///< extra fetch attempts after a tick's miss
  Duration base_backoff = 0.5;   ///< delay before the first retry
  double backoff_factor = 2.0;   ///< each further retry waits this much longer
  double jitter_fraction = 0.25; ///< uniform +/- fraction on each backoff
  /// A report older than this is served as *stale*; infinity = never stale.
  Duration freshness_deadline = std::numeric_limits<double>::infinity();

  void validate() const {
    if (base_backoff <= 0.0)
      throw ConfigError("retry: base_backoff must be > 0");
    if (backoff_factor < 1.0)
      throw ConfigError("retry: backoff_factor must be >= 1");
    if (jitter_fraction < 0.0 || jitter_fraction >= 1.0)
      throw ConfigError("retry: jitter_fraction must be in [0, 1)");
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

  /// Age of the last-known-good report; nullopt when none held.
  [[nodiscard]] std::optional<Duration> age(TimePoint now) const {
    if (!best_) return std::nullopt;
    return now - best_->generated_at;
  }

  /// True while no held report is within the freshness deadline: the
  /// consumer is serving stale data (or none) and should degrade gracefully.
  [[nodiscard]] bool stale(TimePoint now) const {
    return !best_ || now - best_->generated_at > policy_.freshness_deadline;
  }

  [[nodiscard]] const FetchStats& stats() const { return stats_; }
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

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
    for (std::size_t i = 0; i < attempt_; ++i) backoff *= policy_.backoff_factor;
    if (policy_.jitter_fraction > 0.0)
      backoff *= 1.0 + policy_.jitter_fraction *
                           (2.0 * stream_.uniform(1.0) - 1.0);
    ++attempt_;
    pending_ = sched_.schedule_after(backoff,
                                     [this] { attempt(/*is_retry=*/true); });
  }

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
