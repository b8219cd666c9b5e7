// Tests for the EONA control-plane machinery: delayed report channels,
// looking-glass access control, per-peer policies, and the registry.
#include "eona/endpoint.hpp"

#include <gtest/gtest.h>

#include "eona/channel.hpp"
#include "eona/registry.hpp"
#include "eona/robust.hpp"

namespace eona::core {
namespace {

A2IReport report_at(TimePoint t, std::uint64_t sessions = 100) {
  A2IReport r;
  r.from = ProviderId(0);
  r.generated_at = t;
  QoeGroupReport g;
  g.isp = IspId(0);
  g.cdn = CdnId(0);
  g.sessions = sessions;
  g.mean_buffering_ratio = t;  // encode the publish time for assertions
  r.groups.push_back(g);
  return r;
}

// --- ReportChannel ------------------------------------------------------------

TEST(ReportChannel, ZeroDelayIsImmediatelyVisible) {
  ReportChannel<A2IReport> channel;
  EXPECT_FALSE(channel.fetch(0.0).has_value());
  channel.publish(report_at(10.0), 10.0);
  auto got = channel.fetch(10.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->generated_at, 10.0);
}

TEST(ReportChannel, DelayHidesFreshReports) {
  ReportChannel<A2IReport> channel(5.0);
  channel.publish(report_at(10.0), 10.0);
  EXPECT_FALSE(channel.fetch(14.9).has_value());
  ASSERT_TRUE(channel.fetch(15.0).has_value());
}

TEST(ReportChannel, QueriesSeeTheNewestVisibleNotTheNewest) {
  ReportChannel<A2IReport> channel(5.0);
  channel.publish(report_at(10.0), 10.0);
  channel.publish(report_at(12.0), 12.0);
  auto got = channel.fetch(16.0);  // 12.0 not visible until 17.0
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->generated_at, 10.0);
  got = channel.fetch(17.0);
  EXPECT_DOUBLE_EQ(got->generated_at, 12.0);
}

TEST(ReportChannel, StalenessIsAgeOfVisibleReport) {
  ReportChannel<A2IReport> channel(3.0);
  EXPECT_FALSE(channel.staleness(0.0).has_value());
  channel.publish(report_at(10.0), 10.0);
  ASSERT_TRUE(channel.staleness(15.0).has_value());
  EXPECT_DOUBLE_EQ(*channel.staleness(15.0), 5.0);
}

TEST(ReportChannel, PublishTimesMustBeMonotone) {
  ReportChannel<A2IReport> channel;
  channel.publish(report_at(10.0), 10.0);
  EXPECT_THROW(channel.publish(report_at(5.0), 5.0), ContractViolation);
}

// --- LookingGlass ----------------------------------------------------------------

TEST(LookingGlass, OptInIsRequired) {
  A2IEndpoint glass(ProviderId(0));
  EXPECT_FALSE(glass.authorized(ProviderId(1)));
  EXPECT_THROW(glass.query(ProviderId(1), "tok", 0.0), AccessDenied);
}

TEST(LookingGlass, BadTokenIsRejected) {
  A2IEndpoint glass(ProviderId(0));
  glass.authorize(ProviderId(1), "secret");
  EXPECT_THROW(glass.query(ProviderId(1), "wrong", 0.0), AccessDenied);
}

TEST(LookingGlass, AuthorizedPeerSeesPublishedReports) {
  A2IEndpoint glass(ProviderId(0));
  glass.authorize(ProviderId(1), "secret");
  glass.publish(report_at(5.0), 5.0);
  auto got = glass.query(ProviderId(1), "secret", 5.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(glass.publish_count(), 1u);
  EXPECT_EQ(glass.query_count(), 1u);
}

TEST(LookingGlass, RevokeCutsAccess) {
  A2IEndpoint glass(ProviderId(0));
  glass.authorize(ProviderId(1), "secret");
  glass.revoke(ProviderId(1));
  EXPECT_THROW(glass.query(ProviderId(1), "secret", 0.0), AccessDenied);
}

TEST(LookingGlass, PerPeerPoliciesDiffer) {
  A2IEndpoint glass(ProviderId(0));
  A2IPolicy open;
  A2IPolicy strict;
  strict.k_anonymity = 1000;  // suppress everything below 1000 sessions
  glass.authorize(ProviderId(1), "a", open);
  glass.authorize(ProviderId(2), "b", strict);
  glass.publish(report_at(1.0, /*sessions=*/100), 1.0);
  EXPECT_EQ(glass.query(ProviderId(1), "a", 1.0)->groups.size(), 1u);
  EXPECT_TRUE(glass.query(ProviderId(2), "b", 1.0)->groups.empty());
}

TEST(LookingGlass, PerPeerDelayInjectsStaleness) {
  A2IEndpoint glass(ProviderId(0));
  glass.authorize(ProviderId(1), "a", {}, /*delay=*/0.0);
  glass.authorize(ProviderId(2), "b", {}, /*delay=*/30.0);
  glass.publish(report_at(0.0), 0.0);
  EXPECT_TRUE(glass.query(ProviderId(1), "a", 1.0).has_value());
  EXPECT_FALSE(glass.query(ProviderId(2), "b", 1.0).has_value());
  EXPECT_TRUE(glass.query(ProviderId(2), "b", 30.0).has_value());
  glass.set_peer_delay(ProviderId(2), 0.0);
  glass.publish(report_at(31.0), 31.0);
  EXPECT_DOUBLE_EQ(glass.query(ProviderId(2), "b", 31.0)->generated_at, 31.0);
}

// --- policies -----------------------------------------------------------------------

TEST(A2IPolicy, KAnonymityFiltersGroups) {
  A2IPolicy policy;
  policy.k_anonymity = 50;
  A2IReport report = report_at(0.0, /*sessions=*/49);
  A2IReport filtered = policy.apply(report);
  EXPECT_TRUE(filtered.groups.empty());
  EXPECT_EQ(filtered.forecasts.size(), report.forecasts.size());
}

TEST(A2IPolicy, ServerLevelGroupsNeedExplicitSharing) {
  A2IReport report;
  report.from = ProviderId(0);
  QoeGroupReport cdn_level;
  cdn_level.sessions = 100;
  QoeGroupReport server_level = cdn_level;
  server_level.server = ServerId(3);
  report.groups = {cdn_level, server_level};

  A2IPolicy closed;  // default: no server-level groups
  EXPECT_EQ(closed.apply(report).groups.size(), 1u);
  A2IPolicy open;
  open.share_server_level_qoe = true;
  EXPECT_EQ(open.apply(report).groups.size(), 2u);
}

TEST(A2IPolicy, SectionsCanBeWithheld) {
  A2IReport report = report_at(0.0);
  TrafficForecast f;
  report.forecasts.push_back(f);
  A2IPolicy policy;
  policy.share_qoe_groups = false;
  policy.share_traffic_forecasts = false;
  A2IReport filtered = policy.apply(report);
  EXPECT_TRUE(filtered.groups.empty());
  EXPECT_TRUE(filtered.forecasts.empty());
  EXPECT_EQ(filtered.from, report.from);
}

TEST(I2APolicy, CapacityBlindingZeroesCapacity) {
  I2AReport report;
  PeeringStatus p;
  p.capacity = 1e9;
  report.peerings.push_back(p);
  I2APolicy policy;
  policy.share_peering_capacity = false;
  I2AReport filtered = policy.apply(report);
  ASSERT_EQ(filtered.peerings.size(), 1u);
  EXPECT_DOUBLE_EQ(filtered.peerings[0].capacity, 0.0);
}

TEST(I2APolicy, SectionsCanBeWithheld) {
  I2AReport report;
  report.peerings.emplace_back();
  report.server_hints.emplace_back();
  report.congestion.emplace_back();
  I2APolicy policy;
  policy.share_peering_status = false;
  policy.share_server_hints = false;
  policy.share_congestion = false;
  I2AReport filtered = policy.apply(report);
  EXPECT_TRUE(filtered.peerings.empty());
  EXPECT_TRUE(filtered.server_hints.empty());
  EXPECT_TRUE(filtered.congestion.empty());
}

// --- endpoint health ----------------------------------------------------------

TEST(EndpointHealth, HeldDownStragglersDoNotRearmTheHold) {
  EndpointHealth health;  // base 2 s, factor 2, ceiling 60 s
  health.record_failure(7, 0.0);  // first failure: held until 2.0
  EXPECT_FALSE(health.available(7, 1.0));
  // A straggler failure landing inside the window must not extend it...
  health.record_failure(7, 1.0);
  EXPECT_TRUE(health.available(7, 2.0));
  // ...but it still counts, so the next post-expiry failure opens the
  // third-failure hold (2 * 2^2 = 8 s), not the second.
  EXPECT_EQ(health.consecutive_failures(7), 2u);
  health.record_failure(7, 2.0);
  EXPECT_FALSE(health.available(7, 9.9));
  EXPECT_TRUE(health.available(7, 10.0));
}

TEST(EndpointHealth, AllUnhealthyFleetReprobesAfterBackoffCeiling) {
  // Regression: when every endpoint is down, selection keeps using a
  // held-down one, so it keeps failing *during* its hold. Re-arming the hold
  // on each straggler pushed held_until forward forever and the fleet was
  // never probed again. A probe window must open at least once per
  // max_backoff (60 s) once the hold ramps to the ceiling.
  EndpointHealth health;
  int probe_windows = 0;
  for (int step = 0; step <= 1200; ++step) {  // a failure every 0.5 s to 600 s
    TimePoint now = 0.5 * step;
    if (health.available(7, now)) ++probe_windows;
    health.record_failure(7, now);
  }
  // Fixed behaviour opens ~12 windows over 600 s; the broken behaviour
  // opened exactly one (the very first call).
  EXPECT_GE(probe_windows, 8);
}

// --- registry ------------------------------------------------------------------------

TEST(ProviderRegistry, RegistersAndResolves) {
  ProviderRegistry registry;
  ProviderId appp = registry.register_provider(ProviderKind::kAppP, "vod");
  ProviderId infp = registry.register_provider(ProviderKind::kInfP, "isp");
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.info(appp).kind, ProviderKind::kAppP);
  EXPECT_EQ(registry.info(infp).name, "isp");
  EXPECT_THROW((void)registry.info(ProviderId(9)), NotFoundError);
}

TEST(ProviderRegistry, TokensAreDeterministicAndDirectional) {
  ProviderRegistry registry;
  ProviderId a = registry.register_provider(ProviderKind::kAppP, "a");
  ProviderId b = registry.register_provider(ProviderKind::kInfP, "b");
  EXPECT_EQ(registry.mint_token(a, b), registry.mint_token(a, b));
  EXPECT_NE(registry.mint_token(a, b), registry.mint_token(b, a));

  ProviderRegistry other_seed(42);
  ProviderId a2 = other_seed.register_provider(ProviderKind::kAppP, "a");
  ProviderId b2 = other_seed.register_provider(ProviderKind::kInfP, "b");
  EXPECT_NE(registry.mint_token(a, b), other_seed.mint_token(a2, b2));
}

}  // namespace
}  // namespace eona::core
