// Tests for the fault-injection layer of the EONA control plane: the
// FaultProfile contract, the faulted ReportChannel, and the per-peer wiring
// through the looking glass.
//
// The load-bearing guarantees:
//  * an ideal (all-zero) profile is byte-identical to the unfaulted channel,
//    draw for draw and counter for counter;
//  * a 100%-drop profile delivers nothing, ever;
//  * duplicates are invisible to fetch() -- the same report twice can never
//    change what a query returns;
//  * outage windows silence both publishes and queries;
//  * the same (profile, publish sequence) reproduces the same faults.
#include "eona/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "eona/channel.hpp"
#include "eona/endpoint.hpp"
#include "eona/exchange.hpp"
#include "eona/registry.hpp"
#include "eona/robust.hpp"
#include "sim/scheduler.hpp"

namespace eona::core {
namespace {

A2IReport report_at(TimePoint t) {
  A2IReport r;
  r.from = ProviderId(0);
  r.generated_at = t;
  QoeGroupReport g;
  g.isp = IspId(0);
  g.cdn = CdnId(0);
  g.sessions = 100;
  g.mean_buffering_ratio = t;  // encode the publish time for assertions
  r.groups.push_back(g);
  return r;
}

// --- FaultProfile::validate ---------------------------------------------------

TEST(FaultProfile, DefaultIsIdealAndValid) {
  FaultProfile fault;
  EXPECT_TRUE(fault.ideal());
  EXPECT_NO_THROW(fault.validate());
}

TEST(FaultProfile, RejectsOutOfRangeRates) {
  FaultProfile fault;
  fault.drop_rate = -0.1;
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.drop_rate = 1.1;
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.drop_rate = 0.0;
  fault.duplicate_rate = -0.01;
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.duplicate_rate = 2.0;
  EXPECT_THROW(fault.validate(), ConfigError);
}

TEST(FaultProfile, RejectsNegativeJitter) {
  FaultProfile fault;
  fault.max_extra_delay = -1.0;
  EXPECT_THROW(fault.validate(), ConfigError);
}

TEST(FaultProfile, RejectsMalformedOutageWindows) {
  FaultProfile fault;
  fault.outages = {{10.0, 10.0}};  // empty
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.outages = {{10.0, 5.0}};  // inverted
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.outages = {{20.0, 30.0}, {10.0, 15.0}};  // unsorted
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.outages = {{10.0, 30.0}, {20.0, 40.0}};  // overlapping
  EXPECT_THROW(fault.validate(), ConfigError);
  fault.outages = {{10.0, 20.0}, {20.0, 40.0}};  // touching is fine
  EXPECT_NO_THROW(fault.validate());
}

TEST(FaultProfile, ChannelConstructorValidates) {
  FaultProfile fault;
  fault.drop_rate = 2.0;
  EXPECT_THROW(ReportChannel<A2IReport>(0.0, fault), ConfigError);
  ReportChannel<A2IReport> channel;
  EXPECT_THROW(channel.set_fault(fault), ConfigError);
}

TEST(FaultProfile, InOutageIsHalfOpen) {
  FaultProfile fault;
  fault.outages = {{10.0, 20.0}};
  EXPECT_FALSE(fault.in_outage(9.999));
  EXPECT_TRUE(fault.in_outage(10.0));
  EXPECT_TRUE(fault.in_outage(19.999));
  EXPECT_FALSE(fault.in_outage(20.0));
}

// --- ideal profile == unfaulted channel -------------------------------------

TEST(FaultChannel, IdealProfileIsByteIdenticalToUnfaulted) {
  // A profile with only a seed set is still ideal: it must perform no draws,
  // so every fetch and every counter matches the plain channel exactly.
  FaultProfile seeded;
  seeded.seed = 0xDEADBEEFull;
  ReportChannel<A2IReport> plain(5.0);
  ReportChannel<A2IReport> faulted(5.0, seeded);

  for (int i = 0; i < 50; ++i) {
    TimePoint t = 10.0 * (i + 1);
    plain.publish(report_at(t), t);
    faulted.publish(report_at(t), t);
    for (TimePoint probe : {t, t + 2.5, t + 5.0, t + 9.0}) {
      EXPECT_EQ(plain.fetch(probe), faulted.fetch(probe)) << "probe " << probe;
      EXPECT_EQ(plain.staleness(probe), faulted.staleness(probe));
    }
  }
  EXPECT_EQ(plain.stats(), faulted.stats());
  EXPECT_EQ(faulted.stats().dropped, 0u);
  EXPECT_EQ(faulted.stats().duplicated, 0u);
  EXPECT_EQ(faulted.stats().delivered, faulted.stats().published);
}

// --- drop -------------------------------------------------------------------

TEST(FaultChannel, FullDropDeliversNothing) {
  FaultProfile fault;
  fault.drop_rate = 1.0;
  fault.seed = 42;
  ReportChannel<A2IReport> channel(0.0, fault);
  for (int i = 0; i < 100; ++i) {
    TimePoint t = static_cast<double>(i);
    channel.publish(report_at(t), t);
    EXPECT_FALSE(channel.fetch(t + 1000.0).has_value());
  }
  EXPECT_EQ(channel.stats().published, 100u);
  EXPECT_EQ(channel.stats().dropped, 100u);
  EXPECT_EQ(channel.stats().delivered, 0u);
}

TEST(FaultChannel, PartialDropLosesSomeDeliversTheRest) {
  FaultProfile fault;
  fault.drop_rate = 0.5;
  fault.seed = 7;
  ReportChannel<A2IReport> channel(0.0, fault);
  for (int i = 0; i < 200; ++i) {
    TimePoint t = static_cast<double>(i);
    channel.publish(report_at(t), t);
  }
  const ChannelStats& s = channel.stats();
  EXPECT_EQ(s.published, 200u);
  EXPECT_EQ(s.delivered + s.dropped, 200u);
  // A 50% coin over 200 flips: both outcomes occur (overwhelming odds; the
  // stream is deterministic so this can never flake).
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.delivered, 0u);
}

// --- duplication ------------------------------------------------------------

TEST(FaultChannel, DuplicatesNeverChangeWhatFetchReturns) {
  FaultProfile fault;
  fault.duplicate_rate = 1.0;  // every delivery duplicated
  fault.seed = 3;
  ReportChannel<A2IReport> duplicating(2.0, fault);
  ReportChannel<A2IReport> plain(2.0);

  for (int i = 0; i < 60; ++i) {
    TimePoint t = 5.0 * (i + 1);
    duplicating.publish(report_at(t), t);
    plain.publish(report_at(t), t);
    for (TimePoint probe : {t, t + 1.0, t + 2.0, t + 4.9}) {
      EXPECT_EQ(duplicating.fetch(probe), plain.fetch(probe))
          << "probe " << probe;
    }
  }
  EXPECT_EQ(duplicating.stats().duplicated, 60u);
  EXPECT_EQ(duplicating.stats().delivered, 120u);  // each publish enqueued 2x
  EXPECT_EQ(duplicating.stats().published, 60u);
  EXPECT_EQ(duplicating.stats().dropped, 0u);
}

TEST(FaultChannel, DuplicateCopiesGetIndependentJitter) {
  // With jitter, the duplicate may become visible before the original; the
  // report content is identical either way, so fetch() must still agree with
  // an unfaulted channel once the un-jittered delay has elapsed.
  FaultProfile fault;
  fault.duplicate_rate = 1.0;
  fault.max_extra_delay = 3.0;
  fault.seed = 11;
  ReportChannel<A2IReport> channel(1.0, fault);
  channel.publish(report_at(10.0), 10.0);
  // By 10 + 1 + 3 every copy is visible, jitter or not.
  auto got = channel.fetch(14.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->generated_at, 10.0);
}

// --- jitter -----------------------------------------------------------------

TEST(FaultChannel, JitterDelaysButNeverLoses) {
  FaultProfile fault;
  fault.max_extra_delay = 10.0;
  fault.seed = 13;
  ReportChannel<A2IReport> channel(5.0, fault);
  channel.publish(report_at(0.0), 0.0);
  EXPECT_FALSE(channel.fetch(4.9).has_value());  // base delay still applies
  ASSERT_TRUE(channel.fetch(15.0).has_value());  // delay + max jitter passed
  EXPECT_EQ(channel.stats().delivered, 1u);
  EXPECT_EQ(channel.stats().dropped, 0u);
}

// --- outages ----------------------------------------------------------------

TEST(FaultChannel, OutageSilencesQueries) {
  FaultProfile fault;
  fault.outages = {{100.0, 200.0}};
  ReportChannel<A2IReport> channel(0.0, fault);
  channel.publish(report_at(50.0), 50.0);
  ASSERT_TRUE(channel.fetch(99.0).has_value());
  EXPECT_FALSE(channel.fetch(100.0).has_value());  // down
  EXPECT_FALSE(channel.staleness(150.0).has_value());
  auto got = channel.fetch(200.0);  // back up; old report still there
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->generated_at, 50.0);
}

TEST(FaultChannel, PublishesDuringOutageAreLostForGood) {
  FaultProfile fault;
  fault.outages = {{100.0, 200.0}};
  ReportChannel<A2IReport> channel(0.0, fault);
  channel.publish(report_at(150.0), 150.0);  // into the void
  EXPECT_FALSE(channel.fetch(300.0).has_value());
  EXPECT_EQ(channel.stats().dropped, 1u);
  channel.publish(report_at(250.0), 250.0);  // after the outage: delivered
  ASSERT_TRUE(channel.fetch(250.0).has_value());
  EXPECT_DOUBLE_EQ(channel.fetch(250.0)->generated_at, 250.0);
}

// --- determinism ------------------------------------------------------------

TEST(FaultChannel, SameSeedSameFaults) {
  FaultProfile fault;
  fault.drop_rate = 0.3;
  fault.duplicate_rate = 0.2;
  fault.max_extra_delay = 4.0;
  fault.seed = 99;
  ReportChannel<A2IReport> a(2.0, fault);
  ReportChannel<A2IReport> b(2.0, fault);
  for (int i = 0; i < 100; ++i) {
    TimePoint t = 3.0 * (i + 1);
    a.publish(report_at(t), t);
    b.publish(report_at(t), t);
    EXPECT_EQ(a.fetch(t + 1.0), b.fetch(t + 1.0));
    EXPECT_EQ(a.fetch(t + 2.5), b.fetch(t + 2.5));
  }
  EXPECT_EQ(a.stats(), b.stats());
}

TEST(FaultChannel, DifferentSeedsDifferentFaults) {
  FaultProfile fault;
  fault.drop_rate = 0.5;
  fault.seed = 1;
  ReportChannel<A2IReport> a(0.0, fault);
  fault.seed = 2;
  ReportChannel<A2IReport> b(0.0, fault);
  std::vector<bool> pattern_a, pattern_b;
  for (int i = 0; i < 200; ++i) {
    TimePoint t = static_cast<double>(i);
    a.publish(report_at(t), t);
    b.publish(report_at(t), t);
    pattern_a.push_back(a.fetch(t).has_value() &&
                        a.fetch(t)->generated_at == t);
    pattern_b.push_back(b.fetch(t).has_value() &&
                        b.fetch(t)->generated_at == t);
  }
  EXPECT_NE(pattern_a, pattern_b);  // 2^-200 odds of colliding
}

TEST(FaultChannel, SetFaultRestartsTheStream) {
  FaultProfile fault;
  fault.drop_rate = 0.5;
  fault.seed = 5;
  ReportChannel<A2IReport> once(0.0, fault);
  ReportChannel<A2IReport> reset(0.0, fault);
  for (int i = 0; i < 50; ++i) {
    TimePoint t = static_cast<double>(i);
    once.publish(report_at(t), t);
    reset.publish(report_at(t), t);
  }
  // Re-installing the same profile rewinds the draw stream, so replaying the
  // suffix of the sequence reproduces the *prefix* of the fault pattern.
  ChannelStats first_half = once.stats();
  reset.set_fault(fault);
  for (int i = 50; i < 100; ++i) {
    TimePoint t = static_cast<double>(i);
    once.publish(report_at(t), t);
    reset.publish(report_at(t), t);
  }
  EXPECT_EQ(reset.stats().dropped - first_half.dropped, first_half.dropped);
}

// --- looking-glass integration ----------------------------------------------

TEST(FaultGlass, PerPeerFaultsAreIndependent) {
  A2IEndpoint glass(ProviderId(0));
  FaultProfile lossy;
  lossy.drop_rate = 1.0;
  lossy.seed = 17;
  glass.authorize(ProviderId(1), "good", {}, 0.0, lossy);
  glass.authorize(ProviderId(2), "also-good");  // ideal channel

  glass.publish(report_at(10.0), 10.0);
  EXPECT_FALSE(glass.query(ProviderId(1), "good", 10.0).has_value());
  EXPECT_TRUE(glass.query(ProviderId(2), "also-good", 10.0).has_value());

  EXPECT_EQ(glass.peer_stats(ProviderId(1)).dropped, 1u);
  EXPECT_EQ(glass.peer_stats(ProviderId(2)).dropped, 0u);
  ChannelStats total = glass.delivery_stats();
  EXPECT_EQ(total.published, 2u);
  EXPECT_EQ(total.dropped, 1u);
  EXPECT_EQ(total.delivered, 1u);
}

TEST(FaultGlass, SetPeerFaultTakesEffectMidStream) {
  A2IEndpoint glass(ProviderId(0));
  glass.authorize(ProviderId(1), "tok");
  glass.publish(report_at(10.0), 10.0);
  ASSERT_TRUE(glass.query(ProviderId(1), "tok", 10.0).has_value());

  FaultProfile down;
  down.outages = {{20.0, 60.0}};
  glass.set_peer_fault(ProviderId(1), down);
  EXPECT_FALSE(glass.query(ProviderId(1), "tok", 30.0).has_value());
  EXPECT_TRUE(glass.query(ProviderId(1), "tok", 60.0).has_value());
}

// --- broker legs: faults must never leak past trust redaction ----------------
//
// Trust redaction happens at publish time inside the broker's per-leg policy,
// so a faulted leg -- however it drops, duplicates, jitters, or blacks out --
// can only ever re-deliver the *redacted* bytes. These tests hammer lossy
// kMinimal legs with dense probe sequences (the access pattern of a retry
// chain harvesting late and duplicated deliveries) and assert no probe ever
// surfaces a redacted attribute, while a kFull control leg on the same
// exchange proves the sensitive attributes were really in flight.

A2IReport sensitive_a2i(TimePoint t) {
  A2IReport r;
  r.from = ProviderId(0);
  r.generated_at = t;
  QoeGroupReport aggregate;
  aggregate.isp = IspId(0);
  aggregate.cdn = CdnId(0);
  aggregate.sessions = 500;  // survives any k-anonymity floor
  r.groups.push_back(aggregate);
  QoeGroupReport tiny = aggregate;
  tiny.sessions = 2;  // below the kMinimal floor of 10
  r.groups.push_back(tiny);
  QoeGroupReport per_server = aggregate;
  per_server.server = ServerId(7);  // server-level grain
  r.groups.push_back(per_server);
  TrafficForecast f;
  f.isp = IspId(0);
  f.cdn = CdnId(0);
  f.expected_rate = 1e6;
  r.forecasts.push_back(f);
  return r;
}

I2AReport sensitive_i2a(TimePoint t) {
  I2AReport r;
  r.from = ProviderId(1);
  r.generated_at = t;
  PeeringStatus p;
  p.peering = PeeringId(1);
  p.isp = IspId(0);
  p.cdn = CdnId(0);
  p.capacity = 5e6;  // zeroed under kMinimal
  r.peerings.push_back(p);
  ServerHint h;
  h.cdn = CdnId(0);
  h.server = ServerId(7);
  h.load = 0.5;
  r.server_hints.push_back(h);  // withheld under kMinimal
  CongestionSignal c;
  c.isp = IspId(0);
  c.severity = 0.5;
  r.congestion.push_back(c);  // still shared under kMinimal
  return r;
}

FaultProfile nasty_leg(std::uint64_t seed) {
  FaultProfile fault;
  fault.drop_rate = 0.3;
  fault.duplicate_rate = 0.6;
  fault.max_extra_delay = 4.0;
  fault.outages = {{100.0, 140.0}};
  fault.seed = seed;
  return fault;
}

void expect_a2i_redacted(const A2IReport& got, TimePoint probe) {
  EXPECT_TRUE(got.forecasts.empty()) << "forecast leaked at " << probe;
  for (const QoeGroupReport& g : got.groups) {
    EXPECT_FALSE(g.server.valid()) << "server group leaked at " << probe;
    EXPECT_GE(g.sessions, 10u) << "sub-k group leaked at " << probe;
  }
}

TEST(FaultExchange, A2IFaultsNeverLeakRedactedAttributes) {
  ProviderRegistry registry;
  ProviderId appp = registry.register_provider(ProviderKind::kAppP, "vod");
  ProviderId isp_min = registry.register_provider(ProviderKind::kInfP, "min");
  ProviderId isp_full = registry.register_provider(ProviderKind::kInfP, "full");
  Exchange exchange(registry);
  exchange.register_appp(appp);
  exchange.register_infp(isp_min);
  exchange.register_infp(isp_full);

  TenantLink untrusted;
  untrusted.trust = TrustLevel::kMinimal;
  untrusted.a2i_delay = 2.0;
  untrusted.a2i_fault = nasty_leg(21);
  exchange.wire(appp, isp_min, untrusted);
  TenantLink trusted;  // ideal full-trust control leg, server grain allowed
  trusted.a2i_policy.share_server_level_qoe = true;
  exchange.wire(appp, isp_full, trusted);

  bool full_saw_forecast = false, full_saw_server = false;
  for (int i = 0; i < 30; ++i) {
    TimePoint t = 10.0 * (i + 1);
    exchange.publish_a2i(appp, sensitive_a2i(t), t);
    // Dense probes across the delay + jitter window: exactly what a retry
    // chain does, harvesting late/duplicated deliveries.
    for (double off = 0.0; off <= 8.0; off += 0.5) {
      TimePoint probe = t + off;
      if (auto got = exchange.fetch_a2i(isp_min, appp, probe))
        expect_a2i_redacted(*got, probe);
      if (auto got = exchange.fetch_a2i(isp_full, appp, probe)) {
        full_saw_forecast |= !got->forecasts.empty();
        for (const QoeGroupReport& g : got->groups)
          full_saw_server |= g.server.valid();
      }
    }
  }
  // The faulted leg really did deliver (with duplicates), and the sensitive
  // attributes really were in flight on this exchange.
  const ChannelStats& leg = exchange.a2i_leg_stats(appp, isp_min);
  EXPECT_GT(leg.delivered, 0u);
  EXPECT_GT(leg.duplicated, 0u);
  EXPECT_GT(leg.dropped, 0u);
  EXPECT_TRUE(full_saw_forecast);
  EXPECT_TRUE(full_saw_server);
}

TEST(FaultExchange, I2AFaultsNeverLeakRedactedAttributes) {
  ProviderRegistry registry;
  ProviderId appp = registry.register_provider(ProviderKind::kAppP, "vod");
  ProviderId infp = registry.register_provider(ProviderKind::kInfP, "isp");
  Exchange exchange(registry);
  exchange.register_appp(appp);
  exchange.register_infp(infp);
  TenantLink untrusted;
  untrusted.trust = TrustLevel::kMinimal;
  untrusted.i2a_delay = 1.0;
  untrusted.i2a_fault = nasty_leg(22);
  exchange.wire(appp, infp, untrusted);

  bool saw_congestion = false;
  for (int i = 0; i < 30; ++i) {
    TimePoint t = 10.0 * (i + 1);
    exchange.publish_i2a(infp, sensitive_i2a(t), t);
    for (double off = 0.0; off <= 6.0; off += 0.5) {
      TimePoint probe = t + off;
      auto got = exchange.fetch_i2a(appp, infp, probe);
      if (!got) continue;
      EXPECT_TRUE(got->server_hints.empty()) << "hint leaked at " << probe;
      for (const PeeringStatus& p : got->peerings)
        EXPECT_EQ(p.capacity, 0.0) << "capacity leaked at " << probe;
      saw_congestion |= !got->congestion.empty();
    }
  }
  const ChannelStats& leg = exchange.i2a_leg_stats(infp, appp);
  EXPECT_GT(leg.delivered, 0u);
  EXPECT_GT(leg.duplicated, 0u);
  EXPECT_TRUE(saw_congestion);  // the allowed section still flows
}

TEST(FaultExchange, RobustRetryChainHarvestsOnlyRedactedReports) {
  // The literal consumer stack: a RobustFetcher retrying a faulted broker
  // leg. Whatever late or duplicated delivery a retry lands, the harvested
  // last-known-good report must already be redacted.
  ProviderRegistry registry;
  ProviderId appp = registry.register_provider(ProviderKind::kAppP, "vod");
  ProviderId infp = registry.register_provider(ProviderKind::kInfP, "isp");
  Exchange exchange(registry);
  exchange.register_appp(appp);
  exchange.register_infp(infp);
  TenantLink untrusted;
  untrusted.trust = TrustLevel::kMinimal;
  untrusted.a2i_delay = 2.0;
  untrusted.a2i_fault = nasty_leg(23);
  exchange.wire(appp, infp, untrusted);

  sim::Scheduler sched;
  RetryPolicy retry;
  retry.max_retries = 4;
  retry.base_backoff = 0.5;
  retry.freshness_deadline = 5.0;
  int harvested = 0;
  RobustFetcher<A2IReport> fetcher(
      sched,
      [&](TimePoint now) { return exchange.fetch_a2i(infp, appp, now); },
      retry, /*seed=*/9,
      /*on_update=*/[&] {
        ASSERT_TRUE(fetcher.report().has_value());
        expect_a2i_redacted(*fetcher.report(), sched.now());
        ++harvested;
      });

  for (int i = 0; i < 40; ++i) {
    TimePoint t = 10.0 * (i + 1);
    sched.schedule_at(t, [&, t] {
      exchange.publish_a2i(appp, sensitive_a2i(t), t);
      fetcher.poll();
      if (fetcher.report()) expect_a2i_redacted(*fetcher.report(), t);
    });
  }
  sched.run_all();
  ASSERT_TRUE(fetcher.report().has_value());
  expect_a2i_redacted(*fetcher.report(), sched.now());
  EXPECT_GT(fetcher.stats().retries, 0u);  // the chain really ran
  EXPECT_GT(harvested, 0);                 // retries really landed reports
}

// --- broker outage on top of channel faults ----------------------------------

TEST(FaultExchange, UnboundEndpointAnswersNothing) {
  ExchangeEndpoint port;
  EXPECT_FALSE(port.bound());
  EXPECT_FALSE(port.attached());
  EXPECT_FALSE(port.fetch_a2i(ProviderId(0), 1.0).has_value());
  EXPECT_FALSE(port.fetch_i2a(ProviderId(1), 1.0).has_value());
  EXPECT_EQ(port.reattach_count(), 0u);
  EXPECT_EQ(port.reattach_attempts(), 0u);
}

TEST(FaultExchange, DetachedEndpointUnderChannelFaultsReattachesOnce) {
  // A broker crash in the middle of a leg that is already dropping,
  // duplicating, and delaying: the disconnected endpoints answer nullopt
  // while detached (never throw, never leak), and the armed backoff chains
  // re-admit each tenant exactly once even though the leg's faults keep
  // firing around the handshake.
  ProviderRegistry registry;
  ProviderId appp = registry.register_provider(ProviderKind::kAppP, "vod");
  ProviderId infp = registry.register_provider(ProviderKind::kInfP, "isp");
  Exchange exchange(registry);
  exchange.register_appp(appp);
  exchange.register_infp(infp);
  TenantLink untrusted;
  untrusted.trust = TrustLevel::kMinimal;
  untrusted.a2i_fault = nasty_leg(31);
  exchange.wire(appp, infp, untrusted);

  sim::Scheduler sched;
  ExchangeEndpoint producer(&exchange, appp);
  producer.arm_reattach(sched, /*seed=*/7);
  ExchangeEndpoint consumer(&exchange, infp);
  consumer.arm_reattach(sched, /*seed=*/8);

  constexpr TimePoint kCrash = 55.0, kRestart = 85.0;
  sched.schedule_at(kCrash, [&] {
    exchange.crash();
    producer.on_broker_fault("exchange_crash", kCrash);
    consumer.on_broker_fault("exchange_crash", kCrash);
  });
  sched.schedule_at(kRestart, [&] { exchange.restart(); });
  for (int i = 1; i <= 16; ++i) {
    TimePoint t = 10.0 * i;
    sched.schedule_at(t, [&, t] {
      bool accepted = producer.publish_a2i(sensitive_a2i(t), t);
      EXPECT_EQ(accepted, producer.attached());
      // Whatever a faulted leg (re)delivers, it is already redacted; while
      // detached the fetch guard answers nothing at all.
      if (auto got = consumer.fetch_a2i(appp, t)) expect_a2i_redacted(*got, t);
      if (t > kCrash && t < kRestart) {
        EXPECT_FALSE(consumer.fetch_a2i(appp, t).has_value());
      }
    });
  }
  sched.run_all();

  EXPECT_TRUE(producer.attached());
  EXPECT_TRUE(consumer.attached());
  EXPECT_EQ(producer.reattach_count(), 1u);  // no double-register
  EXPECT_EQ(consumer.reattach_count(), 1u);
  EXPECT_GT(exchange.epoch_rejected(), 0u);  // the fence really fired
  EXPECT_TRUE(exchange.invariant_violation().empty());
}

}  // namespace
}  // namespace eona::core
