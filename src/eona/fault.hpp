// Fault injection for the EONA control plane (paper §5: staleness and trust
// across an organizational boundary presuppose that the boundary itself can
// misbehave).
//
// A FaultProfile makes one peer's ReportChannel unreliable in four seeded,
// deterministic ways:
//  * drop        -- a published report is lost before it reaches the peer;
//  * duplication -- a delivered report is enqueued twice (independent delays);
//  * jitter      -- each delivery gains an extra uniform [0, max) delay on top
//                   of the channel's configured propagation delay;
//  * outages     -- scheduled windows during which the looking glass is down:
//                   publishes into the channel are lost AND queries fail.
//
// All randomness flows through the profile's own seed, so a (profile, publish
// sequence) pair reproduces the same faults bit-for-bit, and an all-zero
// profile is byte-identical to the unfaulted channel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/rng.hpp"

namespace eona::core {

/// A scheduled interval [start, end) during which the channel is fully down.
struct OutageWindow {
  TimePoint start = 0.0;
  TimePoint end = 0.0;

  friend bool operator==(const OutageWindow&, const OutageWindow&) = default;
};

/// Per-peer unreliability of one report channel. Default-constructed profile
/// is ideal (no faults).
struct FaultProfile {
  double drop_rate = 0.0;        ///< P(a publish into the channel is lost)
  double duplicate_rate = 0.0;   ///< P(a delivered publish is enqueued twice)
  Duration max_extra_delay = 0.0;  ///< per-delivery jitter, uniform [0, max)
  std::vector<OutageWindow> outages;  ///< must be sorted and non-overlapping
  std::uint64_t seed = 0;        ///< fault stream seed (deterministic)

  [[nodiscard]] bool ideal() const {
    return drop_rate == 0.0 && duplicate_rate == 0.0 &&
           max_extra_delay == 0.0 && outages.empty();
  }

  [[nodiscard]] bool in_outage(TimePoint t) const {
    for (const OutageWindow& w : outages)
      if (t >= w.start && t < w.end) return true;
    return false;
  }

  /// Throws ConfigError on out-of-range rates, negative jitter, or malformed
  /// (empty, inverted, unsorted, overlapping) outage windows.
  void validate() const {
    if (drop_rate < 0.0 || drop_rate > 1.0)
      throw ConfigError("fault: drop_rate must be in [0, 1]");
    if (duplicate_rate < 0.0 || duplicate_rate > 1.0)
      throw ConfigError("fault: duplicate_rate must be in [0, 1]");
    if (max_extra_delay < 0.0)
      throw ConfigError("fault: max_extra_delay must be >= 0");
    for (std::size_t i = 0; i < outages.size(); ++i) {
      if (outages[i].end <= outages[i].start)
        throw ConfigError("fault: outage window must have end > start");
      if (i > 0 && outages[i].start < outages[i - 1].end)
        throw ConfigError("fault: outage windows must be sorted and disjoint");
    }
  }

  friend bool operator==(const FaultProfile&, const FaultProfile&) = default;
};

/// Cumulative per-channel delivery counters (producer side of the health
/// telemetry; the consumer side lives with the robust fetcher).
struct ChannelStats {
  std::uint64_t published = 0;   ///< publish() calls
  std::uint64_t delivered = 0;   ///< entries that actually reached the queue
  std::uint64_t dropped = 0;     ///< lost to drop_rate or an outage
  std::uint64_t duplicated = 0;  ///< extra copies enqueued
  std::uint64_t rate_limited = 0;  ///< suppressed by the broker's token bucket

  ChannelStats& operator+=(const ChannelStats& other) {
    published += other.published;
    delivered += other.delivered;
    dropped += other.dropped;
    duplicated += other.duplicated;
    rate_limited += other.rate_limited;
    return *this;
  }

  friend bool operator==(const ChannelStats&, const ChannelStats&) = default;
};

/// Deterministic draw stream for one faulted channel. A tiny dedicated
/// generator (splitmix64) rather than sim::Rng so that a channel with an
/// all-zero profile performs *no* draws and stays byte-identical to the
/// unfaulted one, and so the fault stream never perturbs workload RNG.
class FaultStream {
 public:
  explicit FaultStream(std::uint64_t seed) : state_(seed) {}

  /// True with probability p; consumes one draw.
  bool chance(double p) { return next_unit() < p; }

  /// Uniform in [0, limit); consumes one draw.
  double uniform(double limit) { return next_unit() * limit; }

 private:
  double next_unit() {
    const std::uint64_t z = sim::splitmix64(state_);
    state_ += sim::kSplitMix64Gamma;
    // 53 mantissa bits -> [0, 1).
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  std::uint64_t state_;
};

}  // namespace eona::core
