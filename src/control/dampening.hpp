// Dampening for control loops (paper §5: "some sort of dampening or backoff
// algorithms can help" against oscillation). A DwellTimer is hysteresis in
// time: a minimum interval between decision changes. E10
// (bench_sec5_dampening) ablates it on both the AppP's primary-CDN knob and
// the InfP's egress knob.
#pragma once

#include "common/contracts.hpp"
#include "common/units.hpp"

namespace eona::control {

/// Allows at most one change per `dwell` seconds. The effective dwell can be
/// temporarily *widened* (multiplied) by a controller that is operating on
/// stale or missing EONA data: with degraded information, acting less often
/// is the graceful way to degrade (§5).
class DwellTimer {
 public:
  explicit DwellTimer(Duration dwell) : dwell_(dwell) {
    EONA_EXPECTS(dwell >= 0.0);
  }

  [[nodiscard]] bool may_change(TimePoint now) const {
    return !changed_once_ || now - last_change_ >= dwell_ * widening_;
  }

  void record_change(TimePoint now) {
    changed_once_ = true;
    last_change_ = now;
  }

  /// Multiply the effective dwell by `factor` (>= 1) until reset to 1.
  void set_widening(double factor) {
    EONA_EXPECTS(factor >= 1.0);
    widening_ = factor;
  }

 private:
  Duration dwell_;
  double widening_ = 1.0;
  TimePoint last_change_ = 0.0;
  bool changed_once_ = false;
};

}  // namespace eona::control
