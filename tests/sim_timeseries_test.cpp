// Tests for time-series recording: step-function semantics, time-weighted
// means, resampling, and MetricSet accounting.
#include "sim/timeseries.hpp"

#include <gtest/gtest.h>

namespace eona::sim {
namespace {

TEST(TimeSeries, RecordsAndExposesSamples) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  ts.record(1.0, 10.0);
  ts.record(2.0, 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.back().value, 20.0);
}

TEST(TimeSeries, RejectsTimeGoingBackwards) {
  TimeSeries ts;
  ts.record(5.0, 1.0);
  EXPECT_THROW(ts.record(4.0, 2.0), ContractViolation);
  ts.record(5.0, 3.0);  // equal timestamps are fine
}

TEST(TimeSeries, BasicStats) {
  TimeSeries ts;
  ts.record(0.0, 2.0);
  ts.record(1.0, 8.0);
  ts.record(2.0, 5.0);
  EXPECT_DOUBLE_EQ(ts.mean(), 5.0);
  EXPECT_DOUBLE_EQ(ts.min(), 2.0);
  EXPECT_DOUBLE_EQ(ts.max(), 8.0);
}

TEST(TimeSeries, StatsOnEmptySeriesAreContractViolations) {
  TimeSeries ts;
  EXPECT_THROW((void)ts.mean(), ContractViolation);
  EXPECT_THROW((void)ts.min(), ContractViolation);
  EXPECT_THROW((void)ts.back(), ContractViolation);
  EXPECT_THROW((void)ts.value_at(0.0), ContractViolation);
}

TEST(TimeSeries, ValueAtIsAStepFunction) {
  TimeSeries ts;
  ts.record(1.0, 10.0);
  ts.record(3.0, 30.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.0), 10.0);  // before first: first value
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(2.999), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(3.0), 30.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 30.0);
}

TEST(TimeSeries, TimeWeightedMeanOfStepFunction) {
  TimeSeries ts;
  ts.record(0.0, 10.0);
  ts.record(4.0, 20.0);  // 10 for [0,4), 20 for [4,8)
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(0.0, 8.0), 15.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(0.0, 4.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(4.0, 8.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(2.0, 6.0), 15.0);
}

TEST(TimeSeries, TimeWeightedMeanExtendsFirstValueBackwards) {
  TimeSeries ts;
  ts.record(5.0, 10.0);
  // The gauge is taken as 10 before its first sample too.
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(0.0, 10.0), 10.0);
}

TEST(TimeSeries, ResampleOntoGrid) {
  TimeSeries ts;
  ts.record(0.0, 1.0);
  ts.record(2.5, 2.0);
  std::vector<Sample> grid = ts.resample(0.0, 5.0, 1.0);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0].value, 1.0);
  EXPECT_DOUBLE_EQ(grid[2].value, 1.0);
  EXPECT_DOUBLE_EQ(grid[3].value, 2.0);  // t=3 after the 2.5 sample
  EXPECT_DOUBLE_EQ(grid[4].value, 2.0);
}

TEST(MetricSet, SeriesAreCreatedOnDemand) {
  MetricSet metrics;
  EXPECT_FALSE(metrics.has_series("x"));
  metrics.series("x").record(1.0, 2.0);
  EXPECT_TRUE(metrics.has_series("x"));
  const MetricSet& view = metrics;
  EXPECT_DOUBLE_EQ(view.series("x").back().value, 2.0);
}

TEST(MetricSet, MissingSeriesLookupOnConstIsAViolation) {
  const MetricSet metrics;
  EXPECT_THROW((void)metrics.series("nope"), ContractViolation);
}

TEST(MetricSet, CountersAccumulate) {
  MetricSet metrics;
  EXPECT_DOUBLE_EQ(metrics.counter("hits"), 0.0);
  metrics.count("hits");
  metrics.count("hits", 2.5);
  EXPECT_DOUBLE_EQ(metrics.counter("hits"), 3.5);
  EXPECT_EQ(metrics.all_counters().size(), 1u);
}

}  // namespace
}  // namespace eona::sim
