// Tests for the what-if planning engine (§5 search-space exploration).
#include "control/whatif.hpp"

#include <gtest/gtest.h>

namespace eona::control {
namespace {

/// World: two servers behind one edge; one shared access link.
class WhatIfTest : public ::testing::Test {
 protected:
  WhatIfTest() {
    client = topo.add_node(net::NodeKind::kClientPop, "client");
    edge = topo.add_node(net::NodeKind::kRouter, "edge");
    s_big = topo.add_node(net::NodeKind::kCdnServer, "big");
    s_small = topo.add_node(net::NodeKind::kCdnServer, "small");
    access = topo.add_link(edge, client, mbps(100), milliseconds(5));
    big = topo.add_link(s_big, edge, mbps(80), milliseconds(5));
    small = topo.add_link(s_small, edge, mbps(10), milliseconds(5));
  }

  Problem one_group_problem(std::size_t sessions = 10) {
    Problem p;
    SessionGroup group;
    group.name = "g";
    group.sessions = sessions;
    group.isp = IspId(0);
    group.client = client;
    group.intended_bitrate = mbps(3);
    p.groups.push_back(group);
    p.options.push_back({
        EndpointOption{CdnId(0), ServerId(0), {big, access}},
        EndpointOption{CdnId(0), ServerId(1), {small, access}},
    });
    p.ladder = {kbps(300), mbps(1), mbps(3)};
    return p;
  }

  net::Topology topo;
  NodeId client, edge, s_big, s_small;
  LinkId access, big, small;
};

TEST_F(WhatIfTest, ScorePredictsSatisfiedPlan) {
  WhatIfEngine engine(topo);
  Problem p = one_group_problem();
  Plan plan;
  plan.endpoint = {0};  // big server
  plan.bitrate = {2};   // 3 Mbps
  PlanScore score = engine.score(p, plan);
  // 10 sessions x 3 Mbps = 30 < 80: fully satisfied.
  EXPECT_NEAR(score.satisfied_fraction, 1.0, 1e-9);
  EXPECT_NEAR(score.total_rate, mbps(30), 1.0);
  EXPECT_GT(score.mean_engagement, 0.9);
}

TEST_F(WhatIfTest, ScorePenalisesOverload) {
  WhatIfEngine engine(topo);
  Problem p = one_group_problem();
  Plan overloaded;
  overloaded.endpoint = {1};  // small server: 10 Mbps for 30 Mbps of intent
  overloaded.bitrate = {2};
  Plan fitted;
  fitted.endpoint = {1};
  fitted.bitrate = {0};  // 300 kbps x 10 = 3 Mbps fits easily
  PlanScore bad = engine.score(p, overloaded);
  PlanScore ok = engine.score(p, fitted);
  EXPECT_LT(bad.satisfied_fraction, 0.5);
  EXPECT_NEAR(ok.satisfied_fraction, 1.0, 1e-9);
}

TEST_F(WhatIfTest, SearchFindsTheObviousOptimum) {
  WhatIfEngine engine(topo);
  Problem p = one_group_problem();
  auto result = engine.search(p);
  EXPECT_EQ(result.evaluated, p.plan_count());
  EXPECT_EQ(result.evaluated, 6u);  // 2 endpoints x 3 bitrates
  EXPECT_EQ(result.best.endpoint[0], 0u);  // the big server
  EXPECT_EQ(result.best.bitrate[0], 2u);   // at full quality
}

TEST_F(WhatIfTest, SearchTradesBitrateWhenCapacityIsShort) {
  WhatIfEngine engine(topo);
  Problem p = one_group_problem(/*sessions=*/50);  // 150M intent vs 80M best
  auto result = engine.search(p);
  EXPECT_EQ(result.best.endpoint[0], 0u);
  // 50 x 1 Mbps = 50M fits; 50 x 3 Mbps = 150M starves. The fluid-model
  // engagement prefers the satisfied 1 Mbps plan.
  EXPECT_EQ(result.best.bitrate[0], 1u);
}

TEST_F(WhatIfTest, PlanCountIsCombinatorial) {
  Problem p = one_group_problem();
  // Add a second group with the same options.
  p.groups.push_back(p.groups[0]);
  p.options.push_back(p.options[0]);
  EXPECT_EQ(p.plan_count(), 36u);  // (2*3)^2
}

TEST_F(WhatIfTest, AccessCongestionPrunesEndpointKnobs) {
  Problem p = one_group_problem();
  core::I2AReport i2a;
  core::CongestionSignal c;
  c.isp = IspId(0);
  c.scope = core::CongestionScope::kAccess;
  c.severity = 0.8;
  i2a.congestion.push_back(c);
  Problem pruned = prune_problem(p, i2a);
  EXPECT_EQ(pruned.options[0].size(), 1u);
  EXPECT_EQ(pruned.plan_count(), 3u);  // only the bitrate knob remains
}

TEST_F(WhatIfTest, UnhealthyServerHintsPruneOptions) {
  Problem p = one_group_problem();
  core::I2AReport i2a;
  core::ServerHint down;
  down.cdn = CdnId(0);
  down.server = ServerId(0);
  down.online = false;
  i2a.server_hints.push_back(down);
  Problem pruned = prune_problem(p, i2a);
  ASSERT_EQ(pruned.options[0].size(), 1u);
  EXPECT_EQ(pruned.options[0][0].server, ServerId(1));
}

TEST_F(WhatIfTest, PruningNeverLeavesAGroupWithoutOptions) {
  Problem p = one_group_problem();
  core::I2AReport i2a;
  for (std::uint32_t s : {0u, 1u}) {
    core::ServerHint down;
    down.cdn = CdnId(0);
    down.server = ServerId(s);
    down.online = false;
    i2a.server_hints.push_back(down);
  }
  Problem pruned = prune_problem(p, i2a);
  EXPECT_EQ(pruned.options[0].size(), p.options[0].size());  // keep original
}

TEST_F(WhatIfTest, PrunedSearchMatchesFullSearchQuality) {
  // With an honest hint (the small server irrelevant to the optimum), the
  // pruned search reaches the same quality with fewer evaluations.
  WhatIfEngine engine(topo);
  Problem p = one_group_problem();
  core::I2AReport i2a;
  core::ServerHint overloaded;
  overloaded.cdn = CdnId(0);
  overloaded.server = ServerId(1);
  overloaded.load = 0.99;
  i2a.server_hints.push_back(overloaded);

  auto full = engine.search(p);
  auto pruned = engine.search_pruned(p, i2a);
  EXPECT_LT(pruned.plans_after, pruned.plans_before);
  EXPECT_NEAR(pruned.result.best_score.mean_engagement,
              full.best_score.mean_engagement, 1e-9);
  EXPECT_LT(pruned.result.evaluated, full.evaluated);
}

TEST_F(WhatIfTest, MalformedPlansAreContractViolations) {
  WhatIfEngine engine(topo);
  Problem p = one_group_problem();
  Plan bad;
  bad.endpoint = {5};
  bad.bitrate = {0};
  EXPECT_THROW((void)engine.score(p, bad), ContractViolation);
  Plan short_plan;
  EXPECT_THROW((void)engine.score(p, short_plan), ContractViolation);
}

}  // namespace
}  // namespace eona::control
