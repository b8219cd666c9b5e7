// Forecaster unit tests against closed-form sequences: Holt linear trend
// on ramps (exact with alpha = beta = 1), periodic input
// fixed points, and the edge cases a live feed produces -- cold start,
// single sample, gaps in time, duplicate timestamps.
#include "control/forecaster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"

namespace eona::control {
namespace {

ForecastConfig cfg(double alpha, double beta, double period = 10.0) {
  ForecastConfig c;
  c.alpha = alpha;
  c.beta = beta;
  c.period = period;
  return c;
}

TEST(HoltWinters, SingleSampleForecastsFlat) {
  HoltWinters hw(cfg(0.5, 0.3));
  hw.observe(0.0, 25.0);
  EXPECT_EQ(hw.level(), 25.0);
  EXPECT_EQ(hw.trend(), 0.0);
  EXPECT_EQ(hw.forecast(0.0), 25.0);
  EXPECT_EQ(hw.forecast(120.0), 25.0);  // no trend information yet
}

TEST(HoltWinters, AlphaBetaOneReproducesRampExactly) {
  // x(t) = 3 + 2 * t/period sampled every period: level locks to the last
  // sample, trend to the per-period slope, and the forecast extrapolates
  // the ramp with no error.
  HoltWinters hw(cfg(1.0, 1.0, 10.0));
  for (int n = 0; n <= 20; ++n) {
    const double t = 10.0 * n;
    hw.observe(t, 3.0 + 2.0 * n);
  }
  EXPECT_NEAR(hw.level(), 43.0, 1e-12);
  EXPECT_NEAR(hw.trend(), 2.0, 1e-12);
  EXPECT_NEAR(hw.forecast(30.0), 49.0, 1e-12);  // 3 periods ahead
}

TEST(HoltWinters, GenericWeightsConvergeOntoRamp) {
  // Any (alpha, beta) eventually locks onto a noiseless linear input: the
  // one-step-ahead prediction error vanishes.
  HoltWinters hw(cfg(0.5, 0.3, 10.0));
  double last_x = 0.0;
  for (int n = 0; n <= 400; ++n) {
    last_x = 5.0 + 1.5 * n;
    hw.observe(10.0 * n, last_x);
  }
  EXPECT_NEAR(hw.level(), last_x, 1e-6);
  EXPECT_NEAR(hw.trend(), 1.5, 1e-6);
  EXPECT_NEAR(hw.forecast(10.0), last_x + 1.5, 1e-5);
}

TEST(HoltWinters, StepInputMatchesRecurrence) {
  // Closed-form reference: run the textbook recurrence directly and demand
  // equality at every step (same arithmetic, same order).
  const double alpha = 0.4, beta = 0.2;
  HoltWinters hw(cfg(alpha, beta, 10.0));
  double level = 0.0, trend = 0.0;
  hw.observe(0.0, 0.0);
  for (int n = 1; n <= 50; ++n) {
    const double x = 8.0;  // step at n = 1
    const double predicted = level + trend;
    const double prev = level;
    level = alpha * x + (1.0 - alpha) * predicted;
    trend = beta * (level - prev) + (1.0 - beta) * trend;
    hw.observe(10.0 * n, x);
    EXPECT_EQ(hw.level(), level) << "n=" << n;
    EXPECT_EQ(hw.trend(), trend) << "n=" << n;
  }
  // A step has no persistent slope: the trend decays back toward zero.
  EXPECT_NEAR(hw.level(), 8.0, 1e-3);
  EXPECT_NEAR(hw.trend(), 0.0, 1e-3);
}

TEST(HoltWinters, PeriodicInputWithoutTrendHitsFixedPoint) {
  // Alternating +-A with beta = 0 (no trend): the level's steady state
  // after a +A sample is A * alpha / (2 - alpha).
  const double alpha = 0.5, A = 12.0;
  HoltWinters hw(cfg(alpha, 0.0, 10.0));
  for (int n = 0; n < 201; ++n)  // ends on a +A observation
    hw.observe(10.0 * n, n % 2 == 0 ? A : -A);
  EXPECT_NEAR(hw.level(), A * alpha / (2.0 - alpha), 1e-9);
  EXPECT_EQ(hw.trend(), 0.0);
  EXPECT_EQ(hw.forecast(50.0), hw.level());  // flat projection
}

TEST(HoltWinters, GapNormalizesTrendInnovation) {
  // Exact ramp with a 3-period hole: gap handling projects the level across
  // the hole and divides the innovation by the elapsed steps, so the
  // tracker stays locked instead of tripling the trend.
  HoltWinters hw(cfg(1.0, 1.0, 10.0));
  hw.observe(0.0, 0.0);
  hw.observe(10.0, 10.0);   // trend = 10 per period
  hw.observe(40.0, 40.0);   // 3 periods later, still on the ramp
  EXPECT_NEAR(hw.level(), 40.0, 1e-12);
  EXPECT_NEAR(hw.trend(), 10.0, 1e-12);
  EXPECT_NEAR(hw.forecast(10.0), 50.0, 1e-12);
}

TEST(HoltWinters, DuplicateTimestampCountsAsOneStep) {
  HoltWinters hw(cfg(0.5, 0.5, 10.0));
  hw.observe(0.0, 10.0);
  hw.observe(0.0, 20.0);  // same t: steps clamps to 1, no divide-by-zero
  EXPECT_TRUE(std::isfinite(hw.level()));
  EXPECT_TRUE(std::isfinite(hw.trend()));
  EXPECT_EQ(hw.observations(), 2u);
}

TEST(HoltWinters, ForecastBeforeAnyObservationThrows) {
  HoltWinters hw(cfg(0.5, 0.3));
  EXPECT_THROW((void)hw.forecast(10.0), ContractViolation);
}

TEST(Forecaster, KeysAreIndependent) {
  Forecaster f(cfg(1.0, 1.0, 10.0));
  EXPECT_EQ(f.size(), 0u);
  EXPECT_FALSE(f.forecast(1, 10.0).has_value());

  for (int n = 0; n <= 5; ++n) {
    f.observe(1, 10.0 * n, 100.0 + 10.0 * n);  // rising link
    f.observe(2, 10.0 * n, 50.0);              // flat link
  }
  EXPECT_EQ(f.size(), 2u);
  ASSERT_TRUE(f.forecast(1, 30.0).has_value());
  EXPECT_NEAR(*f.forecast(1, 30.0), 180.0, 1e-9);
  EXPECT_NEAR(*f.forecast(2, 30.0), 50.0, 1e-9);
  EXPECT_EQ(f.group(3), nullptr);
  ASSERT_NE(f.group(1), nullptr);
  EXPECT_EQ(f.group(1)->observations(), 6u);
}

}  // namespace
}  // namespace eona::control
