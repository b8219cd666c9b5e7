// Traffic forecasting for proactive provisioning: per-group exponential
// smoothers that trend the demand signal the telemetry store serves.
//
// The estimator is deliberately simple enough to verify against
// closed-form sequences (tests/control_forecaster_test.cpp): HoltWinters is
// Holt's linear (level + trend) double exponential smoothing. With
// alpha = beta = 1 it reproduces a ramp exactly (level = last sample,
// trend = last step), and forecast(h) projects level + trend * h/period.
//
// Observations carry their timestamp; a gap of n sample periods first
// projects the level forward by n trend steps, then applies one smoothing
// update with the step-normalized trend innovation -- so a forecaster fed a
// sparse series degrades gracefully instead of treating a gap as one step.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace eona::control {

/// Smoothing parameters of the per-group estimators.
struct ForecastConfig {
  double alpha = 0.5;     ///< level smoothing weight (0..1]
  double beta = 0.3;      ///< trend smoothing weight [0..1]
  Duration period = 10.0; ///< nominal sample spacing for gap normalization
};

/// Holt's linear-trend double exponential smoothing with gap handling.
class HoltWinters {
 public:
  explicit HoltWinters(const ForecastConfig& cfg) : cfg_(cfg) {
    EONA_EXPECTS(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
    EONA_EXPECTS(cfg.beta >= 0.0 && cfg.beta <= 1.0);
    EONA_EXPECTS(cfg.period > 0.0);
  }

  void observe(TimePoint t, double x) {
    if (count_ == 0) {
      level_ = x;
      trend_ = 0.0;  // no trend information from a single sample
    } else {
      // Steps elapsed since the previous observation, min 1 (out-of-order
      // or duplicate timestamps count as one step).
      const double steps =
          std::max(1.0, std::round((t - last_t_) / cfg_.period));
      const double predicted = level_ + trend_ * steps;
      const double prev_level = level_;
      level_ = cfg_.alpha * x + (1.0 - cfg_.alpha) * predicted;
      trend_ = cfg_.beta * (level_ - prev_level) / steps +
               (1.0 - cfg_.beta) * trend_;
    }
    last_t_ = t;
    ++count_;
  }

  [[nodiscard]] std::uint64_t observations() const { return count_; }
  [[nodiscard]] double level() const { return level_; }
  [[nodiscard]] double trend() const { return trend_; }

  /// Projection `horizon` seconds past the last observation. With a single
  /// observation this is the level (trend unknown, assumed flat).
  [[nodiscard]] double forecast(Duration horizon) const {
    EONA_EXPECTS(count_ > 0);
    return level_ + trend_ * (horizon / cfg_.period);
  }

 private:
  ForecastConfig cfg_;
  double level_ = 0.0;
  double trend_ = 0.0;
  TimePoint last_t_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Keyed family of HoltWinters smoothers: one per group (link, (isp, cdn)
/// pair hash, ...). Keys are raw 64-bit ids chosen by the caller.
class Forecaster {
 public:
  explicit Forecaster(const ForecastConfig& cfg = {}) : cfg_(cfg) {}

  void observe(std::uint64_t key, TimePoint t, double x) {
    auto [it, inserted] = groups_.try_emplace(key, HoltWinters{cfg_});
    (void)inserted;
    it->second.observe(t, x);
  }

  /// Projection for `key`, or nullopt before any observation.
  [[nodiscard]] std::optional<double> forecast(std::uint64_t key,
                                               Duration horizon) const {
    auto it = groups_.find(key);
    if (it == groups_.end()) return std::nullopt;
    return it->second.forecast(horizon);
  }

  [[nodiscard]] const HoltWinters* group(std::uint64_t key) const {
    auto it = groups_.find(key);
    return it == groups_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] const ForecastConfig& config() const { return cfg_; }

 private:
  ForecastConfig cfg_;
  std::unordered_map<std::uint64_t, HoltWinters> groups_;
};

}  // namespace eona::control
