// The scenario harness (scenarios/lab.hpp):
//  * the override parser is strict -- a value that does not parse in full,
//    a negative or non-finite number, a signed or fractional integer, an
//    unknown boolean spelling, a value outside a runner's precondition
//    (zero sectors, periods or capacities, a run shorter than a video, a
//    tenant joining while the broker is down): each is a ConfigError naming
//    key and value,
//  * every key a scenario's usage lists (the keys its parser records) is
//    really parsed, so usage cannot drift from the parser,
//  * failover's failure counters agree with the run's own event trace.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "scenarios/lab.hpp"
#include "sim/trace.hpp"
#include "text_mutation.hpp"

namespace eona::scenarios {
namespace {

using Kv = std::map<std::string, std::string>;

/// The ConfigError message `scenario` raises for `overrides`, or "" when it
/// raises none.
std::string config_error(const std::string& scenario, const Kv& overrides) {
  try {
    (void)run_scenario_json(scenario, overrides);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// Expect a ConfigError for `overrides` whose message names `named`
/// (a key=value pair).
void expect_rejected(const std::string& scenario, const Kv& overrides,
                     const std::string& named) {
  const std::string message = config_error(scenario, overrides);
  EXPECT_NE(message.find(named), std::string::npos)
      << scenario << " " << named << ": '" << message << "'";
}

/// Expect a ConfigError that names both the key and the value.
void expect_rejected(const std::string& scenario, const std::string& key,
                     const std::string& value) {
  expect_rejected(scenario, {{key, value}}, key + "=" + value);
}

// --- strict overrides: one regression test per probe -----------------------

TEST(StrictOverrides, RejectsANumberThatIsNotANumber) {
  expect_rejected("quickstart", "run_duration", "abc");
}

TEST(StrictOverrides, RejectsTrailingCharacters) {
  expect_rejected("quickstart", "run_duration", "5x");
}

TEST(StrictOverrides, RejectsANegativeNumber) {
  expect_rejected("quickstart", "run_duration", "-5");
}

TEST(StrictOverrides, RejectsANonFiniteNumber) {
  expect_rejected("quickstart", "run_duration", "nan");
}

TEST(StrictOverrides, RejectsASignedInteger) {
  expect_rejected("cellular", "sessions", "-1");
}

TEST(StrictOverrides, RejectsAFractionalInteger) {
  expect_rejected("quickstart", "seed", "1.5");
}

TEST(StrictOverrides, RejectsAnUnknownBoolean) {
  expect_rejected("flashcrowd", "robust", "maybe");
}

TEST(StrictOverrides, RejectsAnMbpsValueThatOverflowsWhenScaled) {
  // 1e303 Mbit/s is 1e309 bit/s: infinite as a double, and once silently
  // accepted as an access link of infinite capacity.
  expect_rejected("quickstart", "access_capacity_mbps", "1e303");
}

TEST(StrictOverrides, RejectsANegativeRate) {
  expect_rejected("oscillation", "arrival_rate", "-1");
}

// Values that parse but break a runner's precondition: each used to trip a
// contract check deep in the runner instead of naming the override.

TEST(StrictOverrides, RejectsZeroScaleSectors) {
  expect_rejected("scale", "sectors", "0");
}

TEST(StrictOverrides, RejectsZeroScaleThreads) {
  expect_rejected("scale", "threads", "0");
}

TEST(StrictOverrides, RejectsAZeroBarrierPeriod) {
  expect_rejected("scale", "barrier_period", "0");
}

TEST(StrictOverrides, RejectsARunNoLongerThanOneVideo) {
  expect_rejected("scale", {{"run_duration", "100"}, {"video_duration", "120"}},
                  "run_duration=100");
}

TEST(StrictOverrides, RejectsAnArrivalWindowPastTheRun) {
  expect_rejected("scale", "arrival_window", "700");
}

TEST(StrictOverrides, RejectsANightFractionAboveOne) {
  expect_rejected("scale", "diurnal_night_frac", "1.5");
}

TEST(StrictOverrides, RejectsAZeroAccessCapacity) {
  expect_rejected("scale", "access_capacity_mbps", "0");
}

TEST(StrictOverrides, RejectsZeroCellularSectors) {
  expect_rejected("cellular", "sectors", "0");
}

TEST(StrictOverrides, RejectsALabeledFractionAboveOne) {
  expect_rejected("cellular", "labeled_fraction", "2");
}

TEST(StrictOverrides, RejectsZeroEnergyCycles) {
  expect_rejected("energy", "cycles", "0");
}

TEST(StrictOverrides, RejectsAScaleUpLoadNotAboveScaleDown) {
  expect_rejected("energy", "scale_up_load", "0");
}

TEST(StrictOverrides, RejectsAZeroOscillationAppPPeriod) {
  expect_rejected("oscillation", "appp_period", "0");
}

TEST(StrictOverrides, RejectsAZeroOscillationInfPPeriod) {
  expect_rejected("oscillation", "infp_period", "0");
}

TEST(StrictOverrides, RejectsAZeroFailoverAppPPeriod) {
  expect_rejected("failover", "appp_period", "0");
}

TEST(StrictOverrides, RejectsAZeroFailoverInfPPeriod) {
  expect_rejected("failover", "infp_period", "0");
}

TEST(StrictOverrides, RejectsAFairnessRunNoLongerThanOneVideo) {
  expect_rejected("fairness", "run_duration", "0");
}

TEST(StrictOverrides, RejectsAZeroFlashCrowdAccessCapacity) {
  expect_rejected("flashcrowd", "access_capacity_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFlashCrowdOriginCapacity) {
  expect_rejected("flashcrowd", "origin_capacity_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroQuickstartAccessCapacity) {
  expect_rejected("quickstart", "access_capacity_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFailoverCapacityB) {
  expect_rejected("failover", "capacity_b_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFailoverCapacityCx) {
  expect_rejected("failover", "capacity_cx_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFailoverCapacityCy) {
  expect_rejected("failover", "capacity_cy_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFederationPool) {
  expect_rejected("federation", "pool_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFederationAccessCapacity) {
  expect_rejected("federation", "access_capacity_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroFederationVideoDuration) {
  expect_rejected("federation", "video_duration", "0");
}

TEST(StrictOverrides, RejectsAZeroBrokerOutagePool) {
  expect_rejected("broker_outage", "pool_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroBrokerOutageAccessCapacity) {
  expect_rejected("broker_outage", "access_capacity_mbps", "0");
}

TEST(StrictOverrides, RejectsAZeroBrokerOutageVideoDuration) {
  expect_rejected("broker_outage", "video_duration", "0");
}

TEST(StrictOverrides, RejectsABrokerRestartBeforeItsCrash) {
  expect_rejected("broker_outage",
                  {{"crash_at", "300"}, {"restart_at", "100"}},
                  "restart_at=100");
}

TEST(StrictOverrides, RejectsATenantJoinInsideTheBrokerOutage) {
  expect_rejected("broker_outage", {{"restart_at", "400"}},
                  "churn_join_at=390");
  // Without the join the same outage runs.
  EXPECT_EQ(config_error("broker_outage", {{"restart_at", "400"},
                                           {"churn_join_at", "0"},
                                           {"run_duration", "420"}}),
            "");
}

// --- the parser's own record of its keys -----------------------------------

TEST(ScenarioKeys, EveryListedKeyIsParsed) {
  for (const std::string& scenario : scenario_names()) {
    const std::vector<std::string> keys = scenario_keys(scenario);
    ASSERT_FALSE(keys.empty()) << scenario;
    for (const std::string& key : keys) {
      const std::string message = config_error(scenario, {{key, "x"}});
      EXPECT_FALSE(message.empty()) << scenario << " accepted " << key << "=x";
      // faults carries a FaultPlan, whose own errors name the bad token.
      if (key != "faults") {
        EXPECT_NE(message.find(key), std::string::npos)
            << scenario << " " << key << ": '" << message << "'";
      }
    }
  }
}

TEST(ScenarioKeys, UnknownKeysAreNamed) {
  EXPECT_EQ(config_error("quickstart", {{"bogus", "1"}, {"nope", "2"}}),
            "config: unknown keys: bogus nope");
}

TEST(OverridesParser, ScalesMbpsAndReportsPresence) {
  Overrides ov(Kv{{"access_capacity_mbps", "2.5"}});
  double capacity = 1.0;
  EXPECT_TRUE(ov.number("access_capacity_mbps", capacity, 1e6));
  EXPECT_DOUBLE_EQ(capacity, 2.5e6);
  EXPECT_FALSE(ov.number("origin_capacity_mbps", capacity, 1e6));
  EXPECT_DOUBLE_EQ(capacity, 2.5e6);
  EXPECT_TRUE(ov.finish());
}

TEST(OverridesParser, IdsMustFitIn32Bits) {
  std::uint32_t id = 0;
  Overrides fits(Kv{{"isp", "4294967295"}});
  EXPECT_TRUE(fits.integer("isp", id));
  EXPECT_EQ(id, 4294967295u);
  Overrides too_big(Kv{{"isp", "4294967296"}});
  EXPECT_THROW((void)too_big.integer("isp", id), ConfigError);
}

TEST(OverridesParser, IntegerListsAreStrict) {
  std::vector<std::uint64_t> seeds;
  Overrides range(Kv{{"seeds", "3..5"}});
  EXPECT_TRUE(range.integers("seeds", seeds));
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{3, 4, 5}));
  Overrides list(Kv{{"seeds", "7,1"}});
  EXPECT_TRUE(list.integers("seeds", seeds));
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{7, 1}));
  for (const char* bad : {"1..3x", "1,,2", "-1..2", "1.5"}) {
    Overrides ov(Kv{{"seeds", bad}});
    EXPECT_THROW((void)ov.integers("seeds", seeds), ConfigError) << bad;
  }
}

// Inputs that once allocated or spawned without limit: a range ending at
// 2^64 - 1 wrapped its loop counter and pushed seeds until memory ran out,
// `seeds=0..4000000000` asked for about 32 GB, and `threads` took any u64
// and started that many OS threads.

TEST(OverridesParser, ARangeEndingAtTheLargestSeedIsOneSeed) {
  std::vector<std::uint64_t> seeds;
  Overrides ov(Kv{{"seeds", "18446744073709551615..18446744073709551615"}});
  EXPECT_TRUE(ov.integers("seeds", seeds));
  EXPECT_EQ(seeds, std::vector<std::uint64_t>{
                       std::numeric_limits<std::uint64_t>::max()});
}

TEST(OverridesParser, ARangeLongerThanTheBoundIsRejected) {
  // The longest range allowed expands; one more integer is a ConfigError
  // naming key=value, raised before anything is allocated.
  std::vector<std::uint64_t> seeds;
  Overrides longest(Kv{{"seeds", "1..10000"}});
  EXPECT_TRUE(longest.integers("seeds", seeds));
  EXPECT_EQ(seeds.size(), Overrides::kMaxRange);
  EXPECT_EQ(seeds.back(), 10'000u);
  Overrides too_long(Kv{{"seeds", "0..10000"}});
  try {
    (void)too_long.integers("seeds", seeds);
    ADD_FAILURE() << "a range of 10001 seeds was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("seeds=0..10000"), std::string::npos)
        << e.what();
  }
}

TEST(StrictOverrides, RejectsScaleThreadsAboveTheBound) {
  // sectors=0 keeps a regression from starting any worker thread: the run
  // would then fail on sectors, not on threads.
  expect_rejected("scale", {{"threads", "257"}, {"sectors", "0"}},
                  "threads=257");
}

// --- override mutation fuzz --------------------------------------------------

// A million mutated values, each read by one getter called directly: each
// parses into a value in the getter's range or is a ConfigError -- no other
// exception, no crash, no sanitizer report, no range past kMaxRange.
TEST(OverridesFuzz, MutatedValuesParseOrThrowConfigError) {
  const std::vector<std::string> values = {
      "0",     "1",    "7",       "1.5",    "700",
      "1e6",   "0.25", "4294967295",        "18446744073709551615",
      "true",  "no",   "baseline", "eona",  "oracle",
      "1..4",  "3..5", "0..9999", "7,1",    "1,2,3",
      "baseline,eona", ""};
  constexpr const char* kTokens[] = {
      "-1",  "-0",   "1e999", "1e-400", "nan",  "inf", "0x10", " 5", "+5",
      "",    "..",   "1..",   "..1",    ",",    "4294967296",
      "18446744073709551615", "18446744073709551616", "99999999999999999999",
      "maybe", "yes", "oracle"};
  const std::vector<std::function<void(Overrides&)>> getters = {
      [](Overrides& ov) {
        double v = 0.0;
        ov.number("k", v, 1e6);
        ASSERT_TRUE(std::isfinite(v) && v >= 0.0) << v;
      },
      [](Overrides& ov) {
        std::uint32_t v = 0;
        ov.integer("k", v);
      },
      [](Overrides& ov) {
        std::uint64_t v = 0;
        ov.integer("k", v);
      },
      [](Overrides& ov) {
        bool v = false;
        ov.boolean("k", v);
      },
      [](Overrides& ov) {
        ControlMode v = ControlMode::kBaseline;
        ov.mode("k", v);
      },
      [](Overrides& ov) {
        std::vector<std::uint64_t> v;
        ov.integers("k", v);
        ASSERT_LE(v.size(), Overrides::kMaxRange);
      },
      [](Overrides& ov) {
        std::vector<std::string> v;
        ov.list("k", v);
      },
  };
  constexpr std::size_t kMutations = 1'000'000;
  std::mt19937_64 rng(20261022);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string value = fuzz::mutate(values[rng() % values.size()], rng,
                                           "0123456789.,e-+ x", ".,", kTokens);
    Overrides ov(Kv{{"k", value}});
    try {
      getters[rng() % getters.size()](ov);
      ++parsed;
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << e.what() << ": " << value;
    }
    if (HasFatalFailure()) FAIL() << "mutation " << i << ": " << value;
  }
  EXPECT_EQ(parsed + rejected, kMutations);
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(OverridesParser, RecorderListsKeysAndDoesNotRun) {
  Overrides ov = Overrides::recorder();
  double x = 0.0;
  bool b = false;
  EXPECT_FALSE(ov.number("a", x));
  EXPECT_FALSE(ov.boolean("b", b));
  EXPECT_EQ(ov.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(ov.finish());
}

// --- failover's counters against its own trace ------------------------------

std::uint64_t trace_lines(const std::string& trace, const std::string& type) {
  const std::string needle = "\"type\":\"" + type + "\"";
  std::uint64_t n = 0;
  for (std::size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + 1))
    ++n;
  return n;
}

TEST(FailoverCounters, MatchTheTrace) {
  for (const char* mode : {"baseline", "eona"}) {
    for (int seed = 1; seed <= 3; ++seed) {
      sim::TraceWriter trace;
      const core::JsonValue out = run_scenario_json(
          "failover", {{"mode", mode}, {"seed", std::to_string(seed)}},
          nullptr, &trace);
      const std::string& t = trace.buffer();
      const std::string run = std::string(mode) + " seed " +
                              std::to_string(seed);
      EXPECT_EQ(out.at("aborted_transfers").as_number(),
                static_cast<double>(trace_lines(t, "transfer_aborted")))
          << run;
      EXPECT_EQ(out.at("stranded_sessions").as_number(),
                static_cast<double>(trace_lines(t, "session_stranded")))
          << run;
      EXPECT_EQ(out.at("resumed_sessions").as_number(),
                static_cast<double>(trace_lines(t, "session_resumed")))
          << run;
    }
  }
}

}  // namespace
}  // namespace eona::scenarios
