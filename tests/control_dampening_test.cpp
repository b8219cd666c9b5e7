// Tests for the dwell timer and oscillation detection.
#include "control/dampening.hpp"

#include <gtest/gtest.h>

#include "control/oscillation.hpp"

namespace eona::control {
namespace {

TEST(DwellTimer, FirstChangeIsAlwaysAllowed) {
  DwellTimer timer(60.0);
  EXPECT_TRUE(timer.may_change(0.0));
}

TEST(DwellTimer, BlocksUntilDwellElapses) {
  DwellTimer timer(60.0);
  timer.record_change(100.0);
  EXPECT_FALSE(timer.may_change(130.0));
  EXPECT_FALSE(timer.may_change(159.9));
  EXPECT_TRUE(timer.may_change(160.0));
}

TEST(DwellTimer, ZeroDwellNeverBlocks) {
  DwellTimer timer(0.0);
  timer.record_change(5.0);
  EXPECT_TRUE(timer.may_change(5.0));
}

// --- DecisionTrace ------------------------------------------------------------

TEST(DecisionTrace, DeduplicatesUnchangedValues) {
  DecisionTrace trace;
  trace.record(0.0, 1);
  trace.record(1.0, 1);
  trace.record(2.0, 2);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.change_count(), 1u);
  EXPECT_EQ(trace.last_value(), 2);
}

TEST(DecisionTrace, ChangesAfterAndSettledAt) {
  DecisionTrace trace;
  trace.record(0.0, 1);
  trace.record(10.0, 2);
  trace.record(20.0, 3);
  trace.record(30.0, 4);
  EXPECT_EQ(trace.changes_after(15.0), 2u);
  EXPECT_DOUBLE_EQ(trace.settled_at(), 30.0);
}

TEST(DecisionTrace, ReversalsAreAbaPatterns) {
  DecisionTrace trace;
  for (int i = 0; i < 6; ++i) trace.record(i, i % 2);  // 0 1 0 1 0 1
  EXPECT_EQ(trace.reversal_count(), 4u);

  DecisionTrace progressive;
  for (int i = 0; i < 6; ++i) progressive.record(i, i);  // no reversals
  EXPECT_EQ(progressive.reversal_count(), 0u);
}

// --- CycleDetector --------------------------------------------------------------

TEST(CycleDetector, DetectsPeriodTwoCycle) {
  CycleDetector detector;
  for (int i = 0; i < 12; ++i) detector.observe(i % 2);
  EXPECT_TRUE(detector.cycling());
  EXPECT_FALSE(detector.converged());
}

TEST(CycleDetector, DetectsLongerCycles) {
  CycleDetector detector;
  for (int i = 0; i < 20; ++i) detector.observe(i % 4);
  EXPECT_TRUE(detector.cycling(/*max_period=*/8));
}

TEST(CycleDetector, ConstantTailIsConvergenceNotCycling) {
  CycleDetector detector;
  detector.observe(1);
  detector.observe(2);
  for (int i = 0; i < 10; ++i) detector.observe(7);
  EXPECT_FALSE(detector.cycling());
  EXPECT_TRUE(detector.converged());
}

TEST(CycleDetector, NeedsEnoughRepetitions) {
  CycleDetector detector;
  detector.observe(0);
  detector.observe(1);
  detector.observe(0);
  detector.observe(1);
  EXPECT_FALSE(detector.cycling());  // only one full repetition of period 2
}

TEST(CycleDetector, ChaoticTrajectoryIsNeither) {
  CycleDetector detector;
  int value = 1;
  for (int i = 0; i < 30; ++i) {
    value = (value * 31 + 7) % 101;  // pseudo-chaotic
    detector.observe(value);
  }
  EXPECT_FALSE(detector.cycling());
  EXPECT_FALSE(detector.converged());
}

}  // namespace
}  // namespace eona::control
