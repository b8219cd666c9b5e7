// Tests for video QoE accounting and the engagement model.
#include "qoe/video_qoe.hpp"

#include <gtest/gtest.h>

namespace eona::qoe {
namespace {

TEST(EngagementModel, PerfectSessionScoresNearOne) {
  EngagementModel model;
  EXPECT_NEAR(model.predict(0.0, mbps(6), 0.0), 1.0, 1e-9);
}

TEST(EngagementModel, BufferingIsThePrimaryPenalty) {
  EngagementModel model;
  double clean = model.predict(0.0, mbps(2), 1.0);
  double buffered = model.predict(0.10, mbps(2), 1.0);
  EXPECT_LT(buffered, clean * 0.8);
  // Beyond 1/penalty buffering, engagement bottoms out at 0.
  EXPECT_DOUBLE_EQ(model.predict(0.5, mbps(2), 1.0), 0.0);
}

TEST(EngagementModel, MonotoneInEachInput) {
  EngagementModel model;
  double prev = 1.0;
  for (double buffering : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    double e = model.predict(buffering, mbps(2), 1.0);
    EXPECT_LE(e, prev);
    prev = e;
  }
  prev = 0.0;
  for (double bitrate : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    double e = model.predict(0.0, mbps(bitrate), 1.0);
    EXPECT_GE(e, prev);
    prev = e;
  }
  prev = 1.0;
  for (double join : {0.0, 2.0, 10.0, 30.0, 120.0}) {
    double e = model.predict(0.0, mbps(2), join);
    EXPECT_LE(e, prev);
    prev = e;
  }
}

TEST(EngagementModel, InvalidBufferingIsAContractViolation) {
  EngagementModel model;
  EXPECT_THROW((void)model.predict(-0.1, mbps(1), 0.0), ContractViolation);
  EXPECT_THROW((void)model.predict(1.5, mbps(1), 0.0), ContractViolation);
}

TEST(VideoQoeTracker, CleanPlaybackHasZeroBuffering) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(2.0, mbps(3));
  telemetry::SessionMetrics m = tracker.snapshot(62.0);
  EXPECT_DOUBLE_EQ(m.buffering_ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.join_time, 2.0);
  EXPECT_NEAR(m.avg_bitrate, mbps(3), 1.0);
  EXPECT_DOUBLE_EQ(m.rebuffer_rate, 0.0);
}

TEST(VideoQoeTracker, BufferingRatioCountsStallTime) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(0.0, mbps(1));
  tracker.on_stall_start(10.0);
  tracker.on_stall_end(15.0);
  // 15 s of activity: 10 play + 5 stall.
  telemetry::SessionMetrics m = tracker.snapshot(20.0);
  EXPECT_NEAR(m.buffering_ratio, 5.0 / 20.0, 1e-12);
  EXPECT_EQ(tracker.rebuffer_events(), 1u);
  EXPECT_GT(m.rebuffer_rate, 0.0);
}

TEST(VideoQoeTracker, BitrateIsTimeWeightedOverPlayTime) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(0.0, mbps(1));
  tracker.on_bitrate_change(10.0, mbps(3));  // 10 s at 1M, then 10 s at 3M
  telemetry::SessionMetrics m = tracker.snapshot(20.0);
  EXPECT_NEAR(m.avg_bitrate, mbps(2), 1.0);
}

TEST(VideoQoeTracker, StallTimeDoesNotAccrueBitrate) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(0.0, mbps(2));
  tracker.on_stall_start(5.0);
  tracker.on_stall_end(15.0);
  telemetry::SessionMetrics m = tracker.snapshot(20.0);
  // Play time is 10 s, all at 2 Mbps.
  EXPECT_NEAR(m.avg_bitrate, mbps(2), 1.0);
}

TEST(VideoQoeTracker, PreJoinTimeCountsAsJoinTime) {
  VideoQoeTracker tracker(5.0);
  telemetry::SessionMetrics m = tracker.snapshot(12.0);
  EXPECT_DOUBLE_EQ(m.join_time, 7.0);  // still joining
  EXPECT_DOUBLE_EQ(m.buffering_ratio, 0.0);
}

TEST(VideoQoeTracker, StateMachineViolationsThrow) {
  VideoQoeTracker tracker(0.0);
  EXPECT_THROW(tracker.on_stall_start(1.0), ContractViolation);  // not joined
  tracker.on_join(1.0, mbps(1));
  EXPECT_THROW(tracker.on_join(2.0, mbps(1)), ContractViolation);
  EXPECT_THROW(tracker.on_stall_end(2.0), ContractViolation);  // not stalled
  tracker.on_stall_start(3.0);
  EXPECT_THROW(tracker.on_stall_start(4.0), ContractViolation);
}

TEST(VideoQoeTracker, TimeMustNotGoBackwards) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(5.0, mbps(1));
  EXPECT_THROW(tracker.on_stall_start(4.0), ContractViolation);
}

TEST(VideoQoeTracker, BitsDeliveredAccumulate) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(0.0, mbps(1));
  tracker.on_bits_delivered(1e6);
  tracker.on_bits_delivered(2e6);
  EXPECT_DOUBLE_EQ(tracker.snapshot(10.0).bytes_delivered, 3e6);
}

TEST(VideoQoeTracker, SnapshotIsNonDestructive) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(0.0, mbps(1));
  (void)tracker.snapshot(50.0);
  tracker.on_stall_start(10.0);  // 10 < 50: snapshot must not advance state
  telemetry::SessionMetrics m = tracker.snapshot(20.0);
  EXPECT_NEAR(m.buffering_ratio, 0.5, 1e-12);
}

TEST(VideoQoeTracker, EngagementFlowsIntoMetrics) {
  VideoQoeTracker tracker(0.0);
  tracker.on_join(1.0, mbps(6));
  telemetry::SessionMetrics clean = tracker.snapshot(61.0);
  EXPECT_GT(clean.engagement, 0.9);

  VideoQoeTracker bad(0.0);
  bad.on_join(1.0, mbps(6));
  bad.on_stall_start(11.0);
  bad.on_stall_end(31.0);
  telemetry::SessionMetrics stalled = bad.snapshot(61.0);
  EXPECT_LT(stalled.engagement, clean.engagement * 0.5);
}

}  // namespace
}  // namespace eona::qoe
