// Chaos engine, invariant auditor, and the failover scenario:
//  * FaultPlan text-form parsing (grammar + rejection of malformed specs),
//  * ChaosEngine execution (same-instant grouping into one batch, typed
//    FaultEvents, unknown-target errors, server crash/restart),
//  * InvariantAuditor negative tests -- it must FIRE on a flow left routed
//    over a down link and on a stranded session nobody resolved,
//  * chaos determinism: identical plan + seed => byte-identical scenario
//    JSON and event trace, for any sweep thread count,
//  * the E15 headline: EONA-coordinated recovery beats siloed recovery on
//    both time-to-recovery and rebuffer-seconds.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "scenarios/chaos.hpp"
#include "scenarios/auditor.hpp"
#include "scenarios/failover.hpp"
#include "scenarios/lab.hpp"
#include "scenarios/sweep.hpp"
#include "sim/trace.hpp"
#include "text_mutation.hpp"

namespace eona {
namespace {

using sim::FaultAction;
using sim::FaultPlan;

// --- plan parsing ----------------------------------------------------------

TEST(FaultPlanParse, FullGrammar) {
  FaultPlan plan = FaultPlan::parse(
      "down:X@B@120;up:X@B@180;brownout:Y@C@60:0.25;crash:cdn-X/0@90;"
      "restart:cdn-X/0@150");
  ASSERT_EQ(plan.actions.size(), 5u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kLinkDown);
  EXPECT_EQ(plan.actions[0].target, "X@B");  // link names may contain '@'
  EXPECT_DOUBLE_EQ(plan.actions[0].at, 120.0);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kLinkUp);
  EXPECT_EQ(plan.actions[2].kind, FaultAction::Kind::kBrownout);
  EXPECT_DOUBLE_EQ(plan.actions[2].factor, 0.25);
  EXPECT_EQ(plan.actions[3].kind, FaultAction::Kind::kServerCrash);
  EXPECT_EQ(plan.actions[3].target, "cdn-X/0");
  EXPECT_EQ(plan.actions[4].kind, FaultAction::Kind::kServerRestart);
}

TEST(FaultPlanParse, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultPlanParse, RejectsMalformedClauses) {
  EXPECT_THROW((void)FaultPlan::parse("melt:X@B@120"), ConfigError);   // kind
  EXPECT_THROW((void)FaultPlan::parse("down:X@B"), ConfigError);       // time
  EXPECT_THROW((void)FaultPlan::parse("downX@B@120"), ConfigError);    // ':'
  EXPECT_THROW((void)FaultPlan::parse("down:X@B@-5"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("down:X@B@abc"), ConfigError);
  // Factor is brownout-only and must stay in (0, 1].
  EXPECT_THROW((void)FaultPlan::parse("down:X@B@120:0.5"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("brownout:X@B@120:0"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("brownout:X@B@120:1.5"), ConfigError);
}

TEST(FaultPlanParse, ExchangeTargetMapsToBrokerKinds) {
  FaultPlan plan = FaultPlan::parse("crash:exchange@180;restart:exchange@300");
  ASSERT_EQ(plan.actions.size(), 2u);
  EXPECT_EQ(plan.actions[0].kind, FaultAction::Kind::kExchangeCrash);
  EXPECT_EQ(plan.actions[0].target, "exchange");
  EXPECT_DOUBLE_EQ(plan.actions[0].at, 180.0);
  EXPECT_EQ(plan.actions[1].kind, FaultAction::Kind::kExchangeRestart);
  EXPECT_DOUBLE_EQ(plan.actions[1].at, 300.0);
  // Only crash/restart address the broker; it has no capacity to brown out.
  EXPECT_THROW((void)FaultPlan::parse("down:exchange@10"), ConfigError);
  EXPECT_THROW((void)FaultPlan::parse("brownout:exchange@10:0.5"),
               ConfigError);
}

TEST(FaultPlanParse, ErrorsNameOffendingTokenAndBytePosition) {
  auto message_of = [](const std::string& spec) {
    try {
      (void)FaultPlan::parse(spec);
    } catch (const ConfigError& e) {
      return std::string(e.what());
    }
    return std::string("<no error>");
  };
  // The bad clause sits at byte 11 of the plan (1-based): the message must
  // point there, name the clause, and name the offending token.
  std::string msg = message_of("down:ab@5;melt:X@9");
  EXPECT_NE(msg.find("unknown kind 'melt'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'melt:X@9'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at position 11"), std::string::npos) << msg;

  msg = message_of("down:ab@xyz");
  EXPECT_NE(msg.find("bad number 'xyz'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at position 1"), std::string::npos) << msg;

  msg = message_of("up:ab@5;up:ab@6;down:ab@120:0.5");
  EXPECT_NE(msg.find("factor only valid for brownout"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("at position 17"), std::string::npos) << msg;
}

// Numbers in a plan are read whole, as the override parser reads them, and
// must be finite. Each probe below used to be accepted (inf, hex, a leading
// space) or to trip a deep precondition (nan); now it is a ConfigError
// naming the token, its clause and the clause's position.

/// Expect `spec` to be rejected as a bad number `token` in `clause` at
/// 1-based byte `position`.
void expect_bad_number(const std::string& spec, const std::string& token,
                       const std::string& clause, std::size_t position) {
  std::string msg = "<no error>";
  try {
    (void)FaultPlan::parse(spec);
  } catch (const ConfigError& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("bad number '" + token + "'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'" + clause + "'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("at position " + std::to_string(position)),
            std::string::npos)
      << msg;
}

TEST(FaultPlanParse, RejectsANanTime) {
  expect_bad_number("up:X@B@5;down:X@B@nan", "nan", "down:X@B@nan", 10);
}

TEST(FaultPlanParse, RejectsANanBrownoutTime) {
  expect_bad_number("brownout:X@B@nan:0.5", "nan", "brownout:X@B@nan:0.5", 1);
}

TEST(FaultPlanParse, RejectsANanBrownoutFactor) {
  expect_bad_number("brownout:X@B@10:nan", "nan", "brownout:X@B@10:nan", 1);
}

TEST(FaultPlanParse, RejectsAnInfiniteTime) {
  expect_bad_number("down:X@B@inf", "inf", "down:X@B@inf", 1);
}

TEST(FaultPlanParse, RejectsAHexTime) {
  expect_bad_number("down:X@B@0x10", "0x10", "down:X@B@0x10", 1);
}

TEST(FaultPlanParse, RejectsALeadingSpaceInATime) {
  expect_bad_number("down:X@B@ 5", " 5", "down:X@B@ 5", 1);
}

// --- plan mutation fuzz ----------------------------------------------------

// A million mutations of the valid plans above: each parses into actions a
// ChaosEngine can schedule or is a ConfigError -- no other exception, no
// crash, no sanitizer report.
TEST(FaultPlanFuzz, MutatedPlansParseOrThrowConfigError) {
  const std::vector<std::string> plans = {
      "down:X@B@120;up:X@B@180;brownout:Y@C@60:0.25;crash:cdn-X/0@90;"
      "restart:cdn-X/0@150",
      "",
      ";;",
      "crash:exchange@180;restart:exchange@300",
      "down:ab@5",
      "up:ab@5;up:ab@6",
      "up:X@B@5"};
  constexpr const char* kTokens[] = {
      "-1",   "-0",   "0",    "1e308", "1e999", "1e-400", "nan",
      "inf",  "-inf", "0x10", " 5",    "+5",    "5 ",     "",
      "1.5.", "1e",   ".",    "18446744073709551616",    "exchange",
      "melt", "down", "brownout"};
  constexpr std::size_t kMutations = 1'000'000;
  std::mt19937_64 rng(20261019);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string text = fuzz::mutate(plans[rng() % plans.size()], rng,
                                          "0123456789.eE-+:@;/ abxX", "@:;",
                                          kTokens);
    try {
      for (const FaultAction& a : FaultPlan::parse(text).actions) {
        ASSERT_TRUE(std::isfinite(a.at) && a.at >= 0.0) << text;
        ASSERT_FALSE(a.target.empty()) << text;
        if (a.kind == FaultAction::Kind::kBrownout) {
          ASSERT_TRUE(a.factor > 0.0 && a.factor <= 1.0) << text;
        }
      }
      ++parsed;
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw " << e.what() << ": " << text;
    }
  }
  EXPECT_EQ(parsed + rejected, kMutations);
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- chaos engine ----------------------------------------------------------

class ChaosEngineTest : public ::testing::Test {
 protected:
  ChaosEngineTest() {
    a = topo.add_node(net::NodeKind::kRouter, "a");
    b = topo.add_node(net::NodeKind::kRouter, "b");
    ab = topo.add_link(a, b, mbps(10), milliseconds(1), "ab");
    ab2 = topo.add_link(a, b, mbps(10), milliseconds(2), "ab2");
    network.emplace(topo);
    bus.subscribe<sim::FaultEvent>(
        [this](const sim::FaultEvent& e) { events.push_back(e); });
  }
  net::Topology topo;
  NodeId a, b;
  LinkId ab, ab2;
  sim::Scheduler sched;
  sim::EventBus bus;
  std::optional<net::Network> network;
  std::vector<sim::FaultEvent> events;
};

TEST_F(ChaosEngineTest, SameInstantActionsLandAsOneBatch) {
  sim::ChaosEngine chaos(sched, bus, *network);
  // A scheduled partition: both parallel links die at the same instant.
  sim::FaultPlan plan = sim::FaultPlan::parse("down:ab@5;down:ab2@5;up:ab@9");
  chaos.schedule(plan);
  std::uint64_t recomputes_before = network->recompute_count();
  sched.run_until(6.0);
  EXPECT_EQ(chaos.fault_count(), 2u);
  // One Network batch for the instant: exactly one extra recompute.
  EXPECT_EQ(network->recompute_count(), recomputes_before + 1);
  EXPECT_FALSE(network->link_up(ab));
  EXPECT_FALSE(network->link_up(ab2));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "link_down");
  EXPECT_DOUBLE_EQ(events[0].t, 5.0);
  // FaultEvents publish AFTER the batch commits: a subscriber at t=5 already
  // observed both links down (events recorded post-mutation by definition of
  // the synchronous bus; pinned here via the network state above).
  sched.run_until(10.0);
  EXPECT_EQ(chaos.fault_count(), 3u);
  EXPECT_TRUE(network->link_up(ab));
  EXPECT_FALSE(network->link_up(ab2));
}

TEST_F(ChaosEngineTest, BrownoutScalesConfiguredCapacity) {
  sim::ChaosEngine chaos(sched, bus, *network);
  chaos.schedule(sim::FaultPlan::parse("brownout:ab@2:0.25"));
  sched.run_until(3.0);
  EXPECT_DOUBLE_EQ(network->link_capacity(ab), 0.25 * mbps(10));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].kind, "brownout");
  EXPECT_DOUBLE_EQ(events[0].factor, 0.25);
}

TEST_F(ChaosEngineTest, UnknownTargetsThrowAtScheduleTime) {
  sim::ChaosEngine chaos(sched, bus, *network);
  EXPECT_THROW(chaos.schedule(sim::FaultPlan::parse("down:nope@1")),
               ConfigError);
  // Server faults need a CDN directory; this engine has none.
  EXPECT_THROW(chaos.schedule(sim::FaultPlan::parse("crash:cdn-X/0@1")),
               ConfigError);
  // Broker faults need an attached exchange; this engine has none either.
  EXPECT_THROW(chaos.schedule(sim::FaultPlan::parse("crash:exchange@1")),
               ConfigError);
}

// --- invariant auditor -----------------------------------------------------

TEST_F(ChaosEngineTest, AuditorFiresOnFlowLeftOverDownLink) {
  sim::InvariantAuditor auditor(bus, *network);
  network->add_flow({ab});
  network->set_link_up(ab, false);
  // Nobody rerouted or aborted the flow: finalize must abort loudly.
  EXPECT_THROW(auditor.finalize(), Error);
  // Rerouting the flow onto the live twin link clears the violation.
  network->reroute(FlowId(0), {ab2});
  EXPECT_NO_THROW(auditor.finalize());
}

TEST_F(ChaosEngineTest, AuditorFiresOnUnresolvedStrandedSession) {
  sim::InvariantAuditor auditor(bus, *network);
  bus.publish(sim::SessionStrandedEvent{1.0, SessionId(7), "link-down"});
  EXPECT_EQ(auditor.open_stranded(), 1u);
  EXPECT_THROW(auditor.finalize(), Error);
  // A resume resolves it; so would a SessionFinishedEvent.
  bus.publish(sim::SessionResumedEvent{2.0, SessionId(7), 1.0});
  EXPECT_EQ(auditor.open_stranded(), 0u);
  EXPECT_NO_THROW(auditor.finalize());
  EXPECT_EQ(auditor.stranded_events(), 1u);
  EXPECT_EQ(auditor.resumed_events(), 1u);
}

TEST_F(ChaosEngineTest, AuditorChecksEveryRecompute) {
  network->set_event_bus(&bus, &sched);
  sim::InvariantAuditor auditor(bus, *network);
  network->add_flow({ab});
  network->add_flow({ab2});
  network->set_link_up(ab2, false);  // strands flow 1 at rate exactly 0: OK
  EXPECT_GE(auditor.check_count(), 3u);
  network->remove_flow(FlowId(1));
  EXPECT_NO_THROW(auditor.finalize());
}

// --- failover scenario: determinism ----------------------------------------

std::map<std::string, std::string> fast_failover_overrides(
    const std::string& mode, const std::string& seed) {
  return {{"mode", mode},           {"seed", seed},
          {"run_duration", "240"},  {"outage_start", "90"},
          {"arrival_rate", "0.3"}};
}

TEST(FailoverDeterminism, SameSeedSamePlanSameBytes) {
  sim::TraceWriter trace1, trace2;
  core::JsonValue out1 = scenarios::run_scenario_json(
      "failover", fast_failover_overrides("eona", "3"), nullptr, &trace1);
  core::JsonValue out2 = scenarios::run_scenario_json(
      "failover", fast_failover_overrides("eona", "3"), nullptr, &trace2);
  EXPECT_EQ(out1.dump(2), out2.dump(2));
  EXPECT_FALSE(trace1.buffer().empty());
  EXPECT_EQ(trace1.buffer(), trace2.buffer());
  // A different seed must actually change the run (the trace is not inert).
  sim::TraceWriter trace3;
  core::JsonValue out3 = scenarios::run_scenario_json(
      "failover", fast_failover_overrides("eona", "4"), nullptr, &trace3);
  EXPECT_NE(trace1.buffer(), trace3.buffer());
}

TEST(FailoverDeterminism, SweepOutputIdenticalForAnyThreadCount) {
  scenarios::SweepSpec spec;
  spec.scenario = "failover";
  spec.seeds = {1, 2};
  spec.modes = {"baseline", "eona"};
  spec.overrides = fast_failover_overrides("eona", "1");
  spec.overrides.erase("mode");
  spec.overrides.erase("seed");
  std::string trace_serial, trace_parallel;
  spec.threads = 1;
  core::JsonValue serial = scenarios::run_sweep(spec, &trace_serial);
  spec.threads = 4;
  core::JsonValue parallel = scenarios::run_sweep(spec, &trace_parallel);
  EXPECT_EQ(serial.dump(2), parallel.dump(2));
  EXPECT_EQ(trace_serial, trace_parallel);
}

// --- failover scenario: the §4 recovery claim ------------------------------

TEST(FailoverScenario, EonaRecoversFasterThanSiloed) {
  scenarios::FailoverConfig config;
  config.seed = 1;
  config.mode = scenarios::ControlMode::kBaseline;
  scenarios::FailoverResult base = scenarios::run_failover(config);
  config.mode = scenarios::ControlMode::kEona;
  scenarios::FailoverResult eona = scenarios::run_failover(config);

  // Both worlds took the same single fault, and the auditor watched both.
  EXPECT_EQ(base.faults, 1u);
  EXPECT_EQ(eona.faults, 1u);
  EXPECT_GT(base.auditor_checks, 0u);
  EXPECT_GT(eona.auditor_checks, 0u);

  // Siloed world: the outage is discovered one aborted fetch at a time.
  EXPECT_GT(base.aborted_transfers, 0u);
  EXPECT_GT(base.stranded_sessions, 0u);
  EXPECT_EQ(base.infp_failovers, 0u);  // nothing tells the siloed InfP

  // EONA world: the InfP re-steers off the dead interconnect.
  EXPECT_GE(eona.infp_failovers, 1u);

  // The §4 claim, per-seed: faster recovery AND fewer rebuffer-seconds.
  EXPECT_LT(eona.time_to_recovery, base.time_to_recovery);
  EXPECT_LT(eona.rebuffer_seconds, base.rebuffer_seconds);
}

TEST(FailoverScenario, ServerCrashPlanRunsCleanly) {
  scenarios::FailoverConfig config;
  config.mode = scenarios::ControlMode::kEona;
  config.run_duration = 240.0;
  config.faults = "crash:cdn-X/0@60;restart:cdn-X/0@120";
  scenarios::FailoverResult result = scenarios::run_failover(config);
  EXPECT_EQ(result.faults, 2u);  // run_failover finalized the auditor: clean
  EXPECT_GT(result.qoe.sessions, 0u);
}

}  // namespace
}  // namespace eona
