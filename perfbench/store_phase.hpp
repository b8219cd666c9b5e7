// The telemetry half of every workload: hand a live ColumnStore over the
// way `eona_lab --store` / `eona_lab query` do (dump_rows, then
// replay_jsonl into a fresh store), then time ColumnStore::run over a
// seeded mix of query plans on the replayed store. Every plan is also run
// on the live store, and the two answers must agree bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/column_store.hpp"
#include "telemetry/store_replay.hpp"

namespace perfbench {

/// splitmix64: the benchmark's own input generator, so the query mix for a
/// seed does not move when the simulator's rng changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Correctness checks attempted and failed, with the first few failures.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(what);
    }
  }
};

/// Plan classes of the mix.
inline constexpr std::array<const char*, 3> kPlanClasses = {
    "full_scan", "grouped_p90", "filtered_window"};
/// Class of plan i is kPattern[i % 5]: two in five plans scan every row,
/// two scan and sort a group's values, one reads a short window. Keeping
/// the cheap window reads at a fifth puts the mix's median well inside the
/// whole-store plans instead of on the edge between two cost clusters.
inline constexpr std::array<std::size_t, 5> kPattern = {0, 1, 2, 0, 1};

struct Plan {
  std::size_t cls = 0;  ///< index into kPlanClasses
  eona::telemetry::StoreQuery query;
};

/// `count` plans over the metrics and dimension tuples present in `store`;
/// windows fall inside [0, horizon).
[[nodiscard]] inline std::vector<Plan> make_plans(
    const eona::telemetry::ColumnStore& store, std::uint64_t seed,
    std::size_t count, eona::TimePoint horizon) {
  using eona::telemetry::Agg;
  using eona::telemetry::Dim;
  constexpr std::array<Agg, 3> kScanAggs = {Agg::kCount, Agg::kSum,
                                            Agg::kMean};
  constexpr std::array<Dim, 4> kGroupBys = {
      Dim::kIsp, Dim::kCdn, Dim::kIsp | Dim::kCdn, eona::telemetry::kAllDims};
  SplitMix rng(seed ^ 0x5157u);
  const auto& metrics = store.metric_names();
  std::vector<Plan> plans(count);
  for (std::size_t i = 0; i < count; ++i) {
    Plan& plan = plans[i];
    plan.cls = kPattern[i % kPattern.size()];
    eona::telemetry::StoreQuery& q = plan.query;
    q.metric = metrics[rng.below(metrics.size())];
    switch (plan.cls) {
      case 0:
        q.agg = kScanAggs[rng.below(kScanAggs.size())];
        break;
      case 1:
        q.group_by = kGroupBys[rng.below(kGroupBys.size())];
        q.agg = Agg::kP90;
        break;
      default: {
        q.t0 = rng.uniform(0.0, horizon);
        q.t1 = q.t0 + rng.uniform(30.0, 180.0);
        const eona::telemetry::Dimensions& d =
            store.dictionary().dims_of(static_cast<eona::telemetry::GroupId>(
                rng.below(store.group_count())));
        if (rng.below(2) == 0) {
          q.isp = d.isp;
        } else {
          q.cdn = d.cdn;
        }
        q.agg = Agg::kMean;
      }
    }
  }
  return plans;
}

[[nodiscard]] inline bool same_answer(
    const std::vector<eona::telemetry::StoreResultRow>& a,
    const std::vector<eona::telemetry::StoreResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].key == b[i].key) || a[i].rows != b[i].rows ||
        std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Dumps of the live store per phase; the fastest counts.
inline constexpr std::size_t kDumps = 5;

struct StorePhase {
  std::uint64_t rows = 0;
  std::uint64_t groups = 0;
  double dump_s = 0.0;  ///< fastest of kDumps dumps
  double replay_s = 0.0;  ///< fastest of the replays
  std::vector<double> query_us;  ///< per plan, in plan order
  std::array<std::vector<double>, kPlanClasses.size()> class_us;
};

[[nodiscard]] inline StorePhase run_store_phase(
    const eona::telemetry::ColumnStore& live, std::uint64_t seed,
    eona::TimePoint horizon, std::size_t replays, std::size_t queries,
    std::size_t passes, Checks& checks) {
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  StorePhase out;
  out.rows = live.row_count();
  out.groups = live.group_count();

  std::string dump;
  out.dump_s = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d < kDumps; ++d) {
    const Clock::time_point d0 = Clock::now();
    dump = live.dump_rows();
    out.dump_s = std::min(out.dump_s, seconds(d0, Clock::now()));
  }

  std::optional<eona::telemetry::ColumnStore> replayed;
  std::vector<double> replay_s;
  for (std::size_t r = 0; r < replays; ++r) {
    replayed.emplace();
    const Clock::time_point r0 = Clock::now();
    eona::telemetry::replay_jsonl(*replayed, dump);
    replay_s.push_back(seconds(r0, Clock::now()));
  }
  out.replay_s = *std::min_element(replay_s.begin(), replay_s.end());
  checks.check(replayed->row_count() == live.row_count(),
               "replayed row count differs from the live store");
  checks.check(replayed->dump_rows() == dump,
               "replayed store dumps differently from the live store");
  if (live.row_count() == 0) return out;

  // A plan's latency is its best of `passes` runs, made pass by pass so
  // one plan's runs are spread over the whole phase: the mix measures what
  // each plan costs the store, not the host's interrupts and neighbours.
  // The dumps and loads above take their best for the same reason.
  const std::vector<Plan> plans = make_plans(live, seed, queries, horizon);
  out.query_us.assign(plans.size(), std::numeric_limits<double>::infinity());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const Clock::time_point q0 = Clock::now();
      const auto answer = replayed->run(plans[i].query);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - q0).count();
      out.query_us[i] = std::min(out.query_us[i], us);
      if (pass == 0)
        checks.check(same_answer(answer, live.run(plans[i].query)),
                     std::string("query answers differ: ") +
                         kPlanClasses[plans[i].cls] + " on " +
                         plans[i].query.metric);
    }
  }
  for (std::size_t i = 0; i < plans.size(); ++i)
    out.class_us[plans[i].cls].push_back(out.query_us[i]);
  return out;
}

}  // namespace perfbench
