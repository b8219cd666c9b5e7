// Tests for the brokered exchange (the federated N x M interface plane):
// tenant registration, trust-level redaction on wired legs, the per-leg I2A
// token bucket, and the broker-enforced egress-share quota clamp.
#include "eona/exchange.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "eona/endpoint.hpp"
#include "eona/registry.hpp"

namespace eona::core {
namespace {

A2IReport a2i_at(TimePoint t, std::uint64_t sessions = 100) {
  A2IReport r;
  r.from = ProviderId(0);
  r.generated_at = t;
  QoeGroupReport g;
  g.isp = IspId(0);
  g.cdn = CdnId(0);
  g.sessions = sessions;
  r.groups.push_back(g);
  return r;
}

I2AReport i2a_at(TimePoint t) {
  I2AReport r;
  r.from = ProviderId(1);
  r.generated_at = t;
  PeeringStatus p;
  p.peering = PeeringId(1);
  p.isp = IspId(0);
  p.cdn = CdnId(0);
  p.capacity = 1e6;
  r.peerings.push_back(p);
  return r;
}

/// A registry pre-loaded with one AppP and `infps` InfPs.
struct Plane {
  explicit Plane(std::size_t infps = 1) : exchange(registry) {
    appp = registry.register_provider(ProviderKind::kAppP, "vod");
    exchange.register_appp(appp);
    for (std::size_t i = 0; i < infps; ++i) {
      ProviderId id =
          registry.register_provider(ProviderKind::kInfP, "isp" + std::to_string(i));
      exchange.register_infp(id);
      infp.push_back(id);
    }
  }
  ProviderRegistry registry;
  Exchange exchange;
  ProviderId appp;
  std::vector<ProviderId> infp;
};

// --- registration ------------------------------------------------------------

TEST(Exchange, RegistersTenantsOnce) {
  Plane plane(2);
  EXPECT_TRUE(plane.exchange.has_appp(plane.appp));
  EXPECT_TRUE(plane.exchange.has_infp(plane.infp[1]));
  EXPECT_FALSE(plane.exchange.has_infp(plane.appp));
  EXPECT_EQ(plane.exchange.appp_count(), 1u);
  EXPECT_EQ(plane.exchange.infp_count(), 2u);
  EXPECT_THROW(plane.exchange.register_appp(plane.appp), ConfigError);
  EXPECT_THROW(plane.exchange.register_infp(plane.infp[0]), ConfigError);
}

TEST(Exchange, RejectsOutOfRangeQuotas) {
  Plane plane;
  ProviderId other = plane.registry.register_provider(ProviderKind::kAppP, "x");
  EXPECT_THROW(plane.exchange.register_appp(other, TenantQuota{0.0}),
               ConfigError);
  EXPECT_THROW(plane.exchange.register_appp(other, TenantQuota{1.5}),
               ConfigError);
  EXPECT_THROW(plane.exchange.set_quota(plane.appp, TenantQuota{-0.1}),
               ConfigError);
  plane.exchange.set_quota(plane.appp, TenantQuota{0.25});
  EXPECT_EQ(plane.exchange.quota(plane.appp).egress_share, 0.25);
}

TEST(Exchange, UnregisteredTenantsCannotBeWiredOrFetched) {
  Plane plane;
  ProviderId stranger =
      plane.registry.register_provider(ProviderKind::kInfP, "stranger");
  EXPECT_THROW(plane.exchange.wire(plane.appp, stranger), NotFoundError);
  EXPECT_THROW(plane.exchange.wire(stranger, plane.infp[0]), NotFoundError);
  // Registered but unwired: the broker holds no token for the leg.
  EXPECT_THROW(plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 0.0),
               AccessDenied);
  EXPECT_THROW(plane.exchange.fetch_i2a(plane.appp, plane.infp[0], 0.0),
               AccessDenied);
}

TEST(Exchange, UnregisteringAStrangerNamesIt) {
  Plane plane;
  ProviderId stranger =
      plane.registry.register_provider(ProviderKind::kInfP, "stranger");
  const std::string id = std::to_string(stranger.value());
  for (bool appp : {true, false}) {
    try {
      if (appp)
        plane.exchange.unregister_appp(stranger);
      else
        plane.exchange.unregister_infp(stranger);
      FAIL() << "unregistered a stranger";
    } catch (const NotFoundError& e) {
      const std::string want =
          std::string(appp ? "appp " : "infp ") + id + " not registered";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

// --- full-trust legs reproduce direct wiring ---------------------------------

TEST(Exchange, FullTrustLegMatchesDirectChannelExactly) {
  Plane plane;
  plane.exchange.wire(plane.appp, plane.infp[0], {});

  // The reference: a hand-wired glass with the same (default) policy/delay.
  A2IEndpoint direct(plane.appp);
  direct.authorize(plane.infp[0], "tok");

  for (int i = 0; i < 20; ++i) {
    TimePoint t = 10.0 * (i + 1);
    A2IReport r = a2i_at(t, 50 + static_cast<std::uint64_t>(i));
    plane.exchange.publish_a2i(plane.appp, r, t);
    direct.publish(r, t);
    EXPECT_EQ(plane.exchange.fetch_a2i(plane.infp[0], plane.appp, t),
              direct.query(plane.infp[0], "tok", t));
  }
  EXPECT_EQ(plane.exchange.a2i_leg_stats(plane.appp, plane.infp[0]).delivered,
            20u);
}

// --- trust redaction ---------------------------------------------------------

TEST(Exchange, TrustLevelsRedactPerLeg) {
  Plane plane(3);
  TenantLink full;
  full.a2i_policy.share_server_level_qoe = true;
  plane.exchange.wire(plane.appp, plane.infp[0], full);
  TenantLink aggregate = full;
  aggregate.trust = TrustLevel::kAggregate;
  plane.exchange.wire(plane.appp, plane.infp[1], aggregate);
  TenantLink minimal = full;
  minimal.trust = TrustLevel::kMinimal;
  plane.exchange.wire(plane.appp, plane.infp[2], minimal);

  A2IReport r = a2i_at(10.0, 7);  // 7 sessions: >= 5, < 10
  QoeGroupReport server_grain = r.groups.front();
  server_grain.server = ServerId(3);
  server_grain.sessions = 500;
  r.groups.push_back(server_grain);
  TrafficForecast f;
  f.isp = IspId(0);
  f.cdn = CdnId(0);
  f.expected_rate = 1e6;
  r.forecasts.push_back(f);
  plane.exchange.publish_a2i(plane.appp, r, 10.0);

  auto full_view = plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 10.0);
  ASSERT_TRUE(full_view.has_value());
  EXPECT_EQ(full_view->groups.size(), 2u);  // aggregate + server grain
  EXPECT_EQ(full_view->forecasts.size(), 1u);

  auto agg_view = plane.exchange.fetch_a2i(plane.infp[1], plane.appp, 10.0);
  ASSERT_TRUE(agg_view.has_value());
  ASSERT_EQ(agg_view->groups.size(), 1u);  // server grain masked, 7 >= k=5
  EXPECT_FALSE(agg_view->groups.front().server.valid());
  EXPECT_EQ(agg_view->forecasts.size(), 1u);  // forecasts still shared

  auto min_view = plane.exchange.fetch_a2i(plane.infp[2], plane.appp, 10.0);
  ASSERT_TRUE(min_view.has_value());
  EXPECT_TRUE(min_view->groups.empty());  // 7 sessions < k=10
  EXPECT_TRUE(min_view->forecasts.empty());
}

// --- I2A rate limiting -------------------------------------------------------

TEST(Exchange, I2ALegTokenBucketSuppressesChattyInfP) {
  Plane plane;
  TenantLink link;
  // 0.25/s is binary-exact, so the refill arithmetic has no rounding slack.
  link.i2a_rate = RateLimit{/*rate=*/0.25, /*burst=*/1.0};  // 1 per 4 s
  plane.exchange.wire(plane.appp, plane.infp[0], link);

  // Publish every second for 31 s: only t=0, 4, 8, ..., 28 fit the budget.
  for (int i = 0; i <= 30; ++i) {
    TimePoint t = static_cast<double>(i);
    plane.exchange.publish_i2a(plane.infp[0], i2a_at(t), t);
  }
  const ChannelStats& leg =
      plane.exchange.i2a_leg_stats(plane.infp[0], plane.appp);
  EXPECT_EQ(leg.published, 31u);
  EXPECT_EQ(leg.delivered, 8u);
  EXPECT_EQ(leg.rate_limited, 23u);
  // The consumer still sees the newest *delivered* report.
  auto got = plane.exchange.fetch_i2a(plane.appp, plane.infp[0], 31.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->generated_at, 28.0);
}

TEST(Exchange, DefaultRateLimitIsUnlimited) {
  Plane plane;
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  for (int i = 0; i < 50; ++i) {
    TimePoint t = 0.1 * i;
    plane.exchange.publish_i2a(plane.infp[0], i2a_at(t), t);
  }
  EXPECT_EQ(plane.exchange.i2a_leg_stats(plane.infp[0], plane.appp).rate_limited,
            0u);
}

// --- egress quota clamp ------------------------------------------------------

A2IReport forecast_report(TimePoint t, double rate_per_isp) {
  A2IReport r;
  r.from = ProviderId(0);
  r.generated_at = t;
  for (std::uint64_t isp = 0; isp < 2; ++isp)
    for (std::uint64_t cdn = 0; cdn < 2; ++cdn) {
      TrafficForecast f;
      f.isp = IspId(isp);
      f.cdn = CdnId(cdn);
      f.expected_rate = rate_per_isp / 2.0;  // two CDNs split each ISP claim
      r.forecasts.push_back(f);
    }
  return r;
}

TEST(Exchange, DefaultInfiniteReferenceNeverClamps) {
  Plane plane;
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  plane.exchange.set_quota(plane.appp, TenantQuota{0.01});
  plane.exchange.publish_a2i(plane.appp, forecast_report(10.0, 1e12), 10.0);
  EXPECT_EQ(plane.exchange.clamp_count(), 0u);
  auto got = plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 10.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->forecasts.front().expected_rate, 5e11);
}

TEST(Exchange, QuotaClampScalesOverclaimedForecastsPerIsp) {
  Plane plane(2);
  plane.exchange.set_egress_reference(100e6);
  plane.exchange.set_quota(plane.appp, TenantQuota{0.5});  // allowance 50 Mbps
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  plane.exchange.wire(plane.appp, plane.infp[1], {});

  // Claims 120 Mbps toward each of two ISPs: 2.4x the allowance.
  plane.exchange.publish_a2i(plane.appp, forecast_report(10.0, 120e6), 10.0);
  EXPECT_EQ(plane.exchange.clamp_count(), 1u);
  for (ProviderId infp : plane.infp) {
    auto got = plane.exchange.fetch_a2i(infp, plane.appp, 10.0);
    ASSERT_TRUE(got.has_value());
    // Every wired InfP sees the same clamped view: totals at the allowance,
    // per-CDN proportions preserved.
    EXPECT_NEAR(total_forecast_rate(*got, IspId(0)), 50e6, 1.0);
    EXPECT_NEAR(total_forecast_rate(*got, IspId(1)), 50e6, 1.0);
    for (const TrafficForecast& f : got->forecasts)
      EXPECT_NEAR(f.expected_rate, 25e6, 1.0);
  }

  // An honest publish under the allowance passes through untouched.
  plane.exchange.publish_a2i(plane.appp, forecast_report(20.0, 40e6), 20.0);
  EXPECT_EQ(plane.exchange.clamp_count(), 1u);
  auto honest = plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 20.0);
  ASSERT_TRUE(honest.has_value());
  EXPECT_DOUBLE_EQ(total_forecast_rate(*honest, IspId(0)), 40e6);
}

TEST(Exchange, ClampIsEnforcedAtTheBrokerNotTheClient) {
  // The glass the broker holds is the only path to any InfP, so even a
  // tenant publishing through raw glass access cannot bypass publish_a2i's
  // clamp: the scenario-facing publish path is the one that clamps, and the
  // unclamped raw path is the broker's own (trusted) surface.
  Plane plane;
  plane.exchange.set_egress_reference(100e6);
  plane.exchange.set_quota(plane.appp, TenantQuota{0.5});
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  plane.exchange.publish_a2i(plane.appp, forecast_report(10.0, 200e6), 10.0);
  auto got = plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 10.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_NEAR(total_forecast_rate(*got, IspId(0)), 50e6, 1.0);
  EXPECT_EQ(plane.exchange.clamp_count(), 1u);
}

// --- broker lifecycle: crash, epoch fencing, reattach, churn -----------------

TEST(ExchangeLifecycle, CrashBumpsEpochAndFencesPublishes) {
  Plane plane;
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  const std::uint64_t epoch0 = plane.exchange.epoch();
  EXPECT_TRUE(plane.exchange.publish_a2i(plane.appp, a2i_at(1.0), 1.0));

  plane.exchange.crash();
  EXPECT_TRUE(plane.exchange.crashed());
  EXPECT_EQ(plane.exchange.epoch(), epoch0 + 1);
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());
  // Down broker: every publish is fenced and counted; fetches answer
  // nothing (the legs died with the broker) rather than throwing.
  EXPECT_FALSE(
      plane.exchange.publish_a2i(plane.appp, a2i_at(2.0), 2.0, epoch0));
  EXPECT_FALSE(plane.exchange.publish_i2a(plane.infp[0], i2a_at(2.0), 2.0));
  EXPECT_EQ(plane.exchange.epoch_rejected(), 2u);
  EXPECT_EQ(plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 2.0),
            std::nullopt);

  plane.exchange.restart();
  EXPECT_FALSE(plane.exchange.crashed());
  // A restart alone restores nothing: a pre-crash epoch stays fenced and
  // the legs wait for their producer's reattach handshake.
  EXPECT_FALSE(
      plane.exchange.publish_a2i(plane.appp, a2i_at(3.0), 3.0, epoch0));
  EXPECT_EQ(plane.exchange.epoch_rejected(), 3u);
  EXPECT_EQ(plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 3.0),
            std::nullopt);

  EXPECT_EQ(plane.exchange.reattach(plane.appp), plane.exchange.epoch());
  EXPECT_TRUE(plane.exchange.publish_a2i(plane.appp, a2i_at(4.0), 4.0));
  auto got = plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 4.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->generated_at, 4.0);
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());
}

TEST(ExchangeLifecycle, ReattachWhileDownIsRefused) {
  Plane plane;
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  plane.exchange.crash();
  EXPECT_EQ(plane.exchange.reattach(plane.appp), 0u);  // caller backs off
}

TEST(ExchangeLifecycle, ReattachIsIdempotentAndKeepsTrustRedaction) {
  Plane plane(2);
  TenantLink minimal;
  minimal.trust = TrustLevel::kMinimal;
  plane.exchange.wire(plane.appp, plane.infp[0], minimal);
  TenantLink full;
  full.a2i_policy.share_server_level_qoe = true;
  plane.exchange.wire(plane.appp, plane.infp[1], full);

  plane.exchange.crash();
  plane.exchange.restart();
  EXPECT_EQ(plane.exchange.reattach(plane.appp), plane.exchange.epoch());
  // A duplicated handshake (retry chain racing a fault-delayed ack) must
  // not double-register or reset the restored legs.
  EXPECT_EQ(plane.exchange.reattach(plane.appp), plane.exchange.epoch());
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());

  A2IReport r = a2i_at(10.0, 500);
  QoeGroupReport server_grain = r.groups.front();
  server_grain.server = ServerId(3);
  r.groups.push_back(server_grain);
  TrafficForecast f;
  f.isp = IspId(0);
  f.cdn = CdnId(0);
  f.expected_rate = 1e6;
  r.forecasts.push_back(f);
  EXPECT_TRUE(plane.exchange.publish_a2i(plane.appp, r, 10.0));
  // Reconstructed legs carry the link record's trust-redacted policies:
  // exactly one delivery per leg, the minimal view still stripped.
  EXPECT_EQ(plane.exchange.a2i_leg_stats(plane.appp, plane.infp[0]).delivered,
            1u);
  auto min_view = plane.exchange.fetch_a2i(plane.infp[0], plane.appp, 10.0);
  ASSERT_TRUE(min_view.has_value());
  EXPECT_TRUE(min_view->forecasts.empty());
  for (const QoeGroupReport& g : min_view->groups)
    EXPECT_FALSE(g.server.valid());
  auto full_view = plane.exchange.fetch_a2i(plane.infp[1], plane.appp, 10.0);
  ASSERT_TRUE(full_view.has_value());
  EXPECT_FALSE(full_view->forecasts.empty());
}

TEST(ExchangeLifecycle, ArmedEndpointReattachesWithinHorizon) {
  Plane plane;
  plane.exchange.wire(plane.appp, plane.infp[0], {});
  sim::Scheduler sched;
  ExchangeEndpoint port(&plane.exchange, plane.appp);
  port.arm_reattach(sched, /*seed=*/42);
  TimePoint reattached_at = -1.0;
  port.set_on_reattach([&](TimePoint t) { reattached_at = t; });

  constexpr TimePoint kCrash = 10.0, kRestart = 25.0;
  sched.schedule_at(kCrash, [&] {
    plane.exchange.crash();
    port.on_broker_fault("exchange_crash", kCrash);
  });
  sched.schedule_at(kRestart, [&] { plane.exchange.restart(); });
  sched.run_all();

  EXPECT_TRUE(port.attached());
  EXPECT_EQ(port.reattach_count(), 1u);      // re-admitted exactly once
  EXPECT_GT(port.reattach_attempts(), 1u);   // it really backed off while down
  EXPECT_GE(reattached_at, kRestart);
  EXPECT_LE(reattached_at, kRestart + ReattachPolicy{}.horizon());
  EXPECT_DOUBLE_EQ(port.last_reattach_at(), reattached_at);
  EXPECT_GE(port.detached_seconds(), kRestart - kCrash);
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());
}

TEST(ExchangeLifecycle, RenormalizeQuotasRestoresUnitSum) {
  Plane plane;
  plane.exchange.set_egress_reference(100e6);
  plane.exchange.set_quota(plane.appp, TenantQuota{0.5});
  ProviderId second =
      plane.registry.register_provider(ProviderKind::kAppP, "b");
  plane.exchange.register_appp(second, TenantQuota{0.5});
  EXPECT_NEAR(plane.exchange.total_egress_share(), 1.0, 1e-12);
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());

  // A third tenant joins mid-run: shares overflow until the churn hook
  // renormalizes them back to a unit sum.
  ProviderId third = plane.registry.register_provider(ProviderKind::kAppP, "c");
  plane.exchange.register_appp(third, TenantQuota{0.5});
  EXPECT_FALSE(plane.exchange.invariant_violation().empty());  // 1.5 > 1
  plane.exchange.renormalize_quotas();
  EXPECT_NEAR(plane.exchange.total_egress_share(), 1.0, 1e-12);
  EXPECT_NEAR(plane.exchange.quota(plane.appp).egress_share, 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());

  // And again after a leave.
  plane.exchange.unregister_appp(third);
  plane.exchange.renormalize_quotas();
  EXPECT_NEAR(plane.exchange.total_egress_share(), 1.0, 1e-12);
  EXPECT_NEAR(plane.exchange.quota(second).egress_share, 0.5, 1e-12);
  EXPECT_TRUE(plane.exchange.invariant_violation().empty());
}

}  // namespace
}  // namespace eona::core
