// ColumnStore unit tests: ingest, the typed query surface (filters,
// group-by projection, every aggregate), window semantics, and the
// dump/replay round trip eona_lab --store / query rides on.
#include "telemetry/column_store.hpp"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/store_replay.hpp"

namespace eona::telemetry {
namespace {

Dimensions dims(std::uint32_t isp, std::uint32_t cdn, std::uint32_t server,
                std::uint32_t region = 0) {
  Dimensions d;
  d.isp = IspId(isp);
  d.cdn = CdnId(cdn);
  d.server = ServerId(server);
  d.region = region;
  return d;
}

TEST(ColumnStore, InternAssignsDenseStableIds) {
  ColumnStore store;
  EXPECT_EQ(store.intern_metric("a"), 0u);
  EXPECT_EQ(store.intern_metric("b"), 1u);
  EXPECT_EQ(store.intern_metric("a"), 0u);
  EXPECT_EQ(store.find_metric("b"), 1u);
  EXPECT_EQ(store.find_metric("missing"), kNoMetric);
  EXPECT_EQ(store.metric_names().size(), 2u);
}

TEST(ColumnStore, InternSurvivesNameVectorGrowth) {
  // The id map must not dangle into reallocated name storage.
  ColumnStore store;
  for (int i = 0; i < 200; ++i)
    store.intern_metric("metric_" + std::to_string(i));
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(store.find_metric("metric_" + std::to_string(i)),
              static_cast<MetricId>(i));
}

TEST(ColumnStore, CountSumMeanOverOneGroup) {
  ColumnStore store;
  for (int i = 1; i <= 4; ++i)
    store.append(static_cast<double>(i), dims(0, 1, 2), "m", 7, i * 1.5);
  EXPECT_EQ(store.row_count(), 4u);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kCount;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 4u);
  EXPECT_EQ(out[0].value, 4.0);

  q.agg = Agg::kSum;
  EXPECT_EQ(store.run(q)[0].value, 1.5 + 3.0 + 4.5 + 6.0);
  q.agg = Agg::kMean;
  EXPECT_EQ(store.run(q)[0].value, (1.5 + 3.0 + 4.5 + 6.0) / 4.0);
}

TEST(ColumnStore, PercentilesAreExactOrderStatistics) {
  ColumnStore store;
  // 11 values 0..10: lower nearest-rank p50 = index 5, p90 = index 9.
  for (int i = 0; i <= 10; ++i)
    store.append(1.0, dims(0, 0, 0), "m", 0, static_cast<double>(i));
  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kP50;
  EXPECT_EQ(store.run(q)[0].value, 5.0);
  q.agg = Agg::kP90;
  EXPECT_EQ(store.run(q)[0].value, 9.0);
}

TEST(ColumnStore, WindowIsHalfOpen) {
  ColumnStore store;
  for (double t : {10.0, 20.0, 30.0})
    store.append(t, dims(0, 0, 0), "m", 0, t);
  StoreQuery q;
  q.metric = "m";
  q.t0 = 10.0;
  q.t1 = 30.0;  // [10, 30): keeps 10 and 20, drops 30
  q.agg = Agg::kSum;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 2u);
  EXPECT_EQ(out[0].value, 30.0);
}

TEST(ColumnStore, WindowSpanningSegmentsFoldsInTimeOrder) {
  ColumnStore store(60.0);  // rows below land in three segments
  for (double t : {10.0, 70.0, 130.0})
    store.append(t, dims(0, 0, 0), "m", 0, 1.0);
  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kCount;
  EXPECT_EQ(store.run(q)[0].rows, 3u);
  EXPECT_EQ(store.segment_count(), 3u);
}

TEST(ColumnStore, FiltersMatchExactAttributeValues) {
  ColumnStore store;
  store.append(1.0, dims(1, 2, 3, 4), "m", 10, 100.0);
  store.append(2.0, dims(1, 9, 3, 4), "m", 11, 200.0);
  store.append(3.0, dims(5, 2, 3, 4), "m", 10, 400.0);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kSum;
  q.isp = IspId(1);
  EXPECT_EQ(store.run(q)[0].value, 300.0);
  q.cdn = CdnId(2);
  EXPECT_EQ(store.run(q)[0].value, 100.0);

  StoreQuery by_entity;
  by_entity.metric = "m";
  by_entity.agg = Agg::kSum;
  by_entity.entity = 10;
  EXPECT_EQ(store.run(by_entity)[0].value, 500.0);
}

TEST(ColumnStore, GroupByProjectsAndSortsCanonically) {
  ColumnStore store;
  // Insert out of dimension order; results must come back sorted.
  store.append(1.0, dims(2, 0, 0), "m", 0, 20.0);
  store.append(2.0, dims(1, 0, 0), "m", 0, 10.0);
  store.append(3.0, dims(2, 1, 0), "m", 0, 5.0);

  StoreQuery q;
  q.metric = "m";
  q.group_by = Dim::kIsp;
  q.agg = Agg::kSum;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key.isp, IspId(1));
  EXPECT_EQ(out[0].value, 10.0);
  EXPECT_EQ(out[1].key.isp, IspId(2));
  EXPECT_EQ(out[1].value, 25.0);  // both cdn groups fold into isp 2
  // Projected-away attributes come back as wildcards.
  EXPECT_EQ(out[0].key.cdn, CdnId());
}

TEST(ColumnStore, ConsecutiveQueriesDoNotLeakSlotState) {
  ColumnStore store;
  store.append(1.0, dims(1, 0, 0), "m", 0, 1.0);
  store.append(2.0, dims(2, 0, 0), "m", 0, 2.0);
  StoreQuery q;
  q.metric = "m";
  q.group_by = Dim::kIsp;
  q.agg = Agg::kSum;
  auto first = store.run(q);
  auto second = store.run(q);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].key, second[i].key);
    EXPECT_EQ(first[i].value, second[i].value);
  }
}

TEST(ColumnStore, UnknownMetricAndEmptyWindowReturnNothing) {
  ColumnStore store;
  store.append(1.0, dims(0, 0, 0), "m", 0, 1.0);
  StoreQuery q;
  q.metric = "other";
  EXPECT_TRUE(store.run(q).empty());
  q.metric = "m";
  q.t0 = 5.0;
  q.t1 = 5.0;  // empty [t0, t1)
  EXPECT_TRUE(store.run(q).empty());
}

TEST(ColumnStore, DumpReplayRoundTripIsByteIdentical) {
  ColumnStore store;
  // Awkward doubles: denormal-ish, many digits, negative zero.
  store.append(0.1 + 0.2, dims(1, 2, 3, 4), "m", 5, 1.0 / 3.0);
  store.append(61.5, dims(1, 2, 3, 4), "other", 6, -0.0);
  store.append(-5.0, Dimensions{}, "m", 0, 1e-300);

  std::string dump = store.dump_rows();
  ColumnStore reloaded;
  EXPECT_EQ(replay_jsonl(reloaded, dump), 3u);
  EXPECT_EQ(reloaded.dump_rows(), dump);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kSum;
  auto a = store.run(q);
  auto b = reloaded.run(q);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].value, b[0].value);
}

TEST(ColumnStore, ReplaySkipsUnmappedLines) {
  ColumnStore store;
  EXPECT_FALSE(replay_jsonl_line(
      store,
      "{\"t\":1.5,\"type\":\"rate_recompute\",\"recompute\":7,"
      "\"affected_flows\":3,\"affected_links\":2}"));
  EXPECT_FALSE(replay_jsonl_line(store, ""));
  EXPECT_EQ(store.row_count(), 0u);
}

TEST(ColumnStore, ReplayMapsTraceEventsThroughRecorder) {
  ColumnStore store;
  EXPECT_TRUE(replay_jsonl_line(
      store,
      "{\"t\":3.5,\"type\":\"link_sample\",\"link\":2,"
      "\"utilization\":0.75,\"rate\":45000000,\"capacity\":60000000}"));
  EXPECT_EQ(store.row_count(), 2u);  // link_rate + link_util
  StoreQuery q;
  q.metric = "link_util";
  q.entity = 2;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 0.75);
}

}  // namespace
}  // namespace eona::telemetry
