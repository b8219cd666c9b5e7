// The --faults plumbing every eona_lab scenario shares (sim::schedule_faults):
//  * an explicitly-passed empty plan attaches no chaos engine at all, so the
//    scenario JSON and event trace stay byte-identical to the plan-free run
//    (the guarantee chaos.hpp documents),
//  * a non-empty exchange plan really reaches the broker (epoch fences fire
//    and the output moves), failover's included,
//  * scale and cellular -- whose worlds predate the chaos engine -- accept
//    only the empty plan and reject everything else by name,
//  * the E20 broker_outage scenario sweeps byte-identically for any thread
//    count, faults and churn included.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "scenarios/lab.hpp"
#include "scenarios/sweep.hpp"
#include "sim/trace.hpp"

namespace eona {
namespace {

using Overrides = std::map<std::string, std::string>;

/// Cheap federation run (the E19/E20 topology at a fraction of the load).
Overrides small_federation(const std::string& faults) {
  Overrides ov{{"seed", "5"},
               {"run_duration", "240"},
               {"arrival_rate", "0.1"}};
  if (!faults.empty()) ov["faults"] = faults;
  return ov;
}

TEST(ScenarioFaults, EmptyPlanIsByteIdenticalToPlanFreeRun) {
  for (const char* scenario : {"federation", "quickstart"}) {
    Overrides without{{"seed", "3"}};
    Overrides with_empty = without;
    with_empty["faults"] = "";
    if (std::string(scenario) == "federation") {
      without = small_federation("");
      with_empty = without;
      with_empty["faults"] = "";
    }
    sim::TraceWriter trace_without, trace_with;
    core::JsonValue a = scenarios::run_scenario_json(scenario, without,
                                                     nullptr, &trace_without);
    core::JsonValue b = scenarios::run_scenario_json(scenario, with_empty,
                                                     nullptr, &trace_with);
    EXPECT_EQ(a.dump(2), b.dump(2)) << scenario;
    EXPECT_FALSE(trace_without.buffer().empty()) << scenario;
    EXPECT_EQ(trace_without.buffer(), trace_with.buffer()) << scenario;
  }
}

TEST(ScenarioFaults, ExchangePlanReachesTheBroker) {
  core::JsonValue clean =
      scenarios::run_scenario_json("federation", small_federation(""));
  scenarios::RunPerf perf;
  core::JsonValue faulted = scenarios::run_scenario_json(
      "federation", small_federation("crash:exchange@60;restart:exchange@120"),
      nullptr, nullptr, nullptr, &perf);
  EXPECT_NE(clean.dump(2), faulted.dump(2));
  // Ticks landed inside the outage window, so the epoch fence counted them.
  EXPECT_GT(perf.epoch_rejected, 0u);
}

TEST(ScenarioFaults, FailoverAcceptsAnExchangePlan) {
  // The Fig 5 world has a broker, so its exchange must be attached to the
  // chaos engine like every other scenario's ("exchange fault but no
  // exchange attached" otherwise).
  core::JsonValue out = scenarios::run_scenario_json(
      "failover", {{"mode", "eona"},
                   {"faults", "crash:exchange@300;restart:exchange@330"}});
  EXPECT_EQ(out.at("faults").as_number(), 2.0);
}

TEST(ScenarioFaults, ScaleAndCellularAcceptOnlyTheEmptyPlan) {
  EXPECT_THROW((void)scenarios::run_scenario_json(
                   "scale", {{"faults", "down:x@1"}}),
               ConfigError);
  EXPECT_THROW((void)scenarios::run_scenario_json(
                   "cellular", {{"faults", "crash:exchange@1"}}),
               ConfigError);
}

TEST(ScenarioFaults, ServerIndexMustBeAWholeNumberInRange) {
  // A negative or fractional index used to be cast to an integer (-1 is
  // undefined behaviour, 1.5 silently meant server 1).
  for (const char* index : {"-1", "0.5", "1e300"}) {
    const std::string plan = std::string("crash:cdn-X/") + index + "@60";
    std::string msg = "<no error>";
    try {
      (void)scenarios::run_scenario_json("failover", {{"faults", plan}});
    } catch (const ConfigError& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find(std::string("has no server ") + index),
              std::string::npos)
        << msg;
  }
}

TEST(ScenarioFaults, BrokerOutageSweepIdenticalForAnyThreadCount) {
  scenarios::SweepSpec spec;
  spec.scenario = "broker_outage";
  spec.seeds = {1, 2};
  spec.mode_key = "degraded";
  spec.modes = {"0", "1"};
  // The full E20 timeline at half scale: crash, restart, churn join/leave
  // all inside the run, load light enough for a unit test.
  spec.overrides = {{"run_duration", "300"},   {"video_duration", "60"},
                    {"crash_at", "90"},        {"restart_at", "150"},
                    {"churn_join_at", "195"},  {"churn_leave_at", "240"},
                    {"heavy_arrival_rate", "0.5"}};
  std::string trace_serial, trace_parallel;
  spec.threads = 1;
  core::JsonValue serial = scenarios::run_sweep(spec, &trace_serial);
  spec.threads = 2;
  core::JsonValue parallel = scenarios::run_sweep(spec, &trace_parallel);
  EXPECT_EQ(serial.dump(2), parallel.dump(2));
  EXPECT_FALSE(trace_serial.empty());
  EXPECT_EQ(trace_serial, trace_parallel);
}

}  // namespace
}  // namespace eona
