// Acceptance pins for the sector-partitioned scale scenario (E17): the
// serial and sector-parallel executions must produce byte-identical JSON
// for every seed, admission is exact, and unsupported artifact modes are
// rejected up front. The run's QoE summary, folded over the sectors' own
// session lists, equals the summary of their concatenation bit for bit.
#include "scenarios/scale.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "scenarios/lab.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace eona::scenarios {
namespace {

using Overmap = std::map<std::string, std::string>;

/// Small but structurally honest config: several sectors, several barrier
/// rounds, a little headroom churn.
Overmap small_config(std::uint64_t seed, std::size_t threads) {
  return {{"seed", std::to_string(seed)},
          {"threads", std::to_string(threads)},
          {"sessions", "160"},
          {"sectors", "8"},
          {"run_duration", "150"},
          {"video_duration", "30"},
          {"barrier_period", "20"},
          {"access_capacity_mbps", "20"}};
}

std::string run_json(std::uint64_t seed, std::size_t threads) {
  return run_scenario_json("scale", small_config(seed, threads)).dump(2);
}

TEST(ScaleScenario, SectorParallelIsByteIdenticalToSerialForSeeds1To5) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::string serial = run_json(seed, 1);
    EXPECT_EQ(run_json(seed, 2), serial) << "seed " << seed << " threads 2";
    EXPECT_EQ(run_json(seed, 4), serial) << "seed " << seed << " threads 4";
  }
}

TEST(ScaleScenario, RepeatedRunsAreDeterministic) {
  EXPECT_EQ(run_json(42, 2), run_json(42, 2));
}

TEST(ScaleScenario, AdmitsExactlyTheConfiguredSessions) {
  ScaleConfig config;
  config.sessions = 161;  // deliberately not divisible by sectors
  config.sectors = 8;
  config.threads = 2;
  config.run_duration = 150.0;
  config.video_duration = 30.0;
  config.barrier_period = 20.0;
  config.access_capacity = mbps(20);
  ScaleResult r = run_scale(config);
  EXPECT_EQ(r.arrivals, 161u);
  EXPECT_EQ(r.qoe.sessions, 161u);
  ASSERT_EQ(r.per_sector.size(), 8u);
  std::size_t total = 0;
  for (const QoeSummary& qoe : r.per_sector) total += qoe.sessions;
  EXPECT_EQ(total, 161u);
  // The first sector carries the remainder session.
  EXPECT_EQ(r.per_sector[0].sessions, 21u);
  EXPECT_EQ(r.per_sector[7].sessions, 20u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.peak_concurrent, 0u);
  EXPECT_GE(r.barrier_rounds, 7u);
}

TEST(ScaleScenario, DiurnalProfileStillAdmitsExactQuota) {
  Overmap ov = small_config(3, 2);
  ov["diurnal"] = "true";
  core::JsonValue out = run_scenario_json("scale", ov);
  EXPECT_EQ(out.dump(2), run_scenario_json("scale", ov).dump(2));
}

/// Config whose arrival window closes well before the run ends, so the tail
/// rounds have genuinely quiescent sectors for the barrier loop to elide.
Overmap quiet_tail_config(std::uint64_t seed, std::size_t threads) {
  Overmap ov = small_config(seed, threads);
  ov["run_duration"] = "240";
  ov["arrival_window"] = "90";
  return ov;
}

TEST(ScaleScenario, ElisionOnOffIsByteIdenticalForSeeds1To5) {
  // Skipping a quiescent sector must be observationally equivalent to
  // dispatching it: deferred periodic ticks fire at the same sim times on
  // catch-up, so the result JSON is byte-identical for every seed and
  // thread count, elision on or off.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::string reference;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
      Overmap on = quiet_tail_config(seed, threads);
      Overmap off = on;
      off["elide"] = "false";
      std::string elided = run_scenario_json("scale", on).dump(2);
      EXPECT_EQ(run_scenario_json("scale", off).dump(2), elided)
          << "seed " << seed << " threads " << threads;
      if (reference.empty()) reference = elided;
      EXPECT_EQ(elided, reference) << "seed " << seed << " threads "
                                   << threads;
    }
  }
}

TEST(ScaleScenario, QuietTailActuallyElidesSectors) {
  ScaleConfig config;
  config.sessions = 160;
  config.sectors = 8;
  config.threads = 2;
  config.run_duration = 240.0;
  config.video_duration = 30.0;
  config.barrier_period = 20.0;
  config.arrival_window = 90.0;
  config.access_capacity = mbps(20);
  ScaleResult on = run_scale(config);
  EXPECT_GT(on.sectors_elided, 0u);
  // Every sector is either dispatched or elided each barrier round, plus
  // one dense drain round at the end.
  EXPECT_EQ(on.sectors_dispatched + on.sectors_elided,
            (on.barrier_rounds + 1) * config.sectors);

  config.elide_quiescent = false;
  ScaleResult off = run_scale(config);
  EXPECT_EQ(off.sectors_elided, 0u);
  EXPECT_EQ(off.sectors_dispatched, (off.barrier_rounds + 1) * config.sectors);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.arrivals, on.arrivals);
  EXPECT_EQ(off.reallocations, on.reallocations);
}

TEST(ScaleScenario, DiurnalNightTroughElidesAndStaysDeterministic) {
  // diurnal_night_frac=0 zeroes the overnight arrival rate, so sectors that
  // drain during the trough are elided mid-run, not just in the tail.
  Overmap ov = small_config(4, 2);
  ov["run_duration"] = "600";
  ov["video_duration"] = "20";
  ov["sessions"] = "400";
  ov["diurnal"] = "true";
  ov["diurnal_night_frac"] = "0";
  std::string a = run_scenario_json("scale", ov).dump(2);
  EXPECT_EQ(run_scenario_json("scale", ov).dump(2), a);
  Overmap off = ov;
  off["elide"] = "false";
  off["threads"] = "1";
  EXPECT_EQ(run_scenario_json("scale", off).dump(2), a);
}

TEST(ScaleScenario, PerfCountersAccumulateWhenRequested) {
  RunPerf perf;
  core::JsonValue out = run_scenario_json("scale", small_config(1, 1), nullptr,
                                          nullptr, nullptr, &perf);
  EXPECT_GT(perf.events, 0u);
  EXPECT_GT(perf.barrier_rounds, 0u);
  EXPECT_GT(perf.sectors_dispatched, 0u);
  EXPECT_GT(perf.parallel_advance_ns, 0u);
  double frac = perf.serial_fraction();
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  (void)out;
}

TEST(ScaleScenario, TraceAndStoreAreRejected) {
  sim::TraceWriter trace;
  telemetry::ColumnStore store;
  EXPECT_THROW(run_scenario_json("scale", small_config(1, 1), nullptr, &trace),
               ConfigError);
  EXPECT_THROW(run_scenario_json("scale", small_config(1, 1), nullptr, nullptr,
                                 &store),
               ConfigError);
}

TEST(ScaleScenario, ModeChangesOutcomesButNotDeterminism) {
  Overmap baseline = small_config(2, 2);
  baseline["mode"] = "baseline";
  std::string a = run_scenario_json("scale", baseline).dump(2);
  EXPECT_EQ(run_scenario_json("scale", baseline).dump(2), a);
  EXPECT_NE(a, run_json(2, 2));  // eona mode differs from baseline
}

// ---------------------------------------------------------------------------
// QoeSummary over parts (scale folds its sectors without concatenating them)
// ---------------------------------------------------------------------------

using Sessions = QoeSummary::Sessions;

/// Bit-for-bit equality: every double compared with memcmp (so -0.0 and
/// NaN payloads count), every counter exactly.
void expect_bit_identical(const QoeSummary& a, const QoeSummary& b,
                          const std::string& where) {
  EXPECT_EQ(a.sessions, b.sessions) << where;
  EXPECT_EQ(a.stalls, b.stalls) << where;
  EXPECT_EQ(a.cdn_switches, b.cdn_switches) << where;
  EXPECT_EQ(a.server_switches, b.server_switches) << where;
  const std::pair<const char*, double QoeSummary::*> doubles[] = {
      {"mean_buffering", &QoeSummary::mean_buffering},
      {"p90_buffering", &QoeSummary::p90_buffering},
      {"mean_bitrate", &QoeSummary::mean_bitrate},
      {"mean_join_time", &QoeSummary::mean_join_time},
      {"mean_engagement", &QoeSummary::mean_engagement}};
  for (const auto& [name, field] : doubles)
    EXPECT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0)
        << where << " " << name << ": " << a.*field << " vs " << b.*field;
}

app::SessionSummary random_session(sim::Rng& rng) {
  app::SessionSummary s;
  auto& m = s.record.metrics;
  // A coarse grid of buffering ratios makes ties at the p90 rank common.
  m.buffering_ratio = rng.bernoulli(0.5)
                          ? static_cast<double>(rng.uniform_int(0, 8)) / 8.0
                          : rng.uniform(0.0, 1.0);
  m.avg_bitrate = rng.uniform(2e5, 6e6);
  m.join_time = rng.uniform(0.0, 20.0);
  m.engagement = rng.uniform(0.0, 1.0);
  s.stalls = static_cast<std::uint64_t>(rng.uniform_int(0, 5));
  s.cdn_switches = static_cast<std::uint64_t>(rng.uniform_int(0, 2));
  s.server_switches = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  return s;
}

std::vector<const Sessions*> pointers(const std::vector<Sessions>& parts) {
  std::vector<const Sessions*> result;
  for (const Sessions& part : parts) result.push_back(&part);
  return result;
}

TEST(QoeSummaryParts, FoldEqualsTheConcatenationBitForBit) {
  auto short_join = [](const app::SessionSummary& s) {
    return s.record.metrics.join_time < 8.0;
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    std::vector<Sessions> parts(
        static_cast<std::size_t>(rng.uniform_int(1, 12)));
    Sessions all;
    for (Sessions& part : parts) {
      // About one part in four is empty, as elided or idle sectors are.
      std::int64_t size = rng.bernoulli(0.25) ? 0 : rng.uniform_int(1, 40);
      for (std::int64_t i = 0; i < size; ++i)
        part.push_back(random_session(rng));
      all.insert(all.end(), part.begin(), part.end());
    }
    const std::vector<const Sessions*> views = pointers(parts);
    const std::string where = "seed " + std::to_string(seed);
    expect_bit_identical(QoeSummary::from_parts(views), QoeSummary::from(all),
                         where);
    expect_bit_identical(QoeSummary::from_parts(views, short_join),
                         QoeSummary::from(all, short_join),
                         where + " (filtered)");
  }
}

TEST(QoeSummaryParts, ZeroSessionsOverallIsTheEmptySummary) {
  const QoeSummary empty = QoeSummary::from(Sessions{});
  EXPECT_EQ(empty.sessions, 0u);
  expect_bit_identical(QoeSummary::from_parts({}), empty, "no parts");
  const std::vector<Sessions> parts(5);
  expect_bit_identical(QoeSummary::from_parts(pointers(parts)), empty,
                       "five empty parts");
  expect_bit_identical(QoeSummary{}, empty, "default summary");
}

}  // namespace
}  // namespace eona::scenarios
