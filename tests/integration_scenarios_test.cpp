// Integration tests: run each paper scenario end-to-end (at modest scale)
// and assert the *shape* of the result the paper claims -- who wins, and in
// which direction every headline metric moves.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "scenarios/cellular_web.hpp"
#include "scenarios/coarse_control.hpp"
#include "scenarios/energy.hpp"
#include "scenarios/flashcrowd.hpp"
#include "scenarios/lab.hpp"
#include "scenarios/oscillation.hpp"

namespace eona::scenarios {
namespace {

// --- E2: Fig 3 flash crowd ----------------------------------------------------

class FlashCrowdShape : public ::testing::Test {
 protected:
  static FlashCrowdConfig config(ControlMode mode) {
    FlashCrowdConfig c;  // the calibrated defaults
    c.mode = mode;
    return c;
  }
};

TEST_F(FlashCrowdShape, EonaEliminatesFutileCdnSwitching) {
  FlashCrowdResult baseline = run_flash_crowd(config(ControlMode::kBaseline));
  FlashCrowdResult eona = run_flash_crowd(config(ControlMode::kEona));
  ASSERT_GT(baseline.qoe.sessions, 50u);
  ASSERT_GT(eona.qoe.sessions, 50u);
  // The paper's claim: switching CDNs cannot relieve access congestion, so
  // the informed AppP stops doing it entirely.
  EXPECT_GT(baseline.qoe.cdn_switches, 100u);
  EXPECT_EQ(eona.qoe.cdn_switches, 0u);
  // And experience improves: faster joins, better engagement, no worse
  // rebuffering (tolerances absorb seed-level noise on near-zero values).
  EXPECT_LE(eona.qoe.mean_buffering, baseline.qoe.mean_buffering + 0.002);
  EXPECT_LE(eona.crowd_qoe.mean_join_time, baseline.crowd_qoe.mean_join_time);
  EXPECT_GT(eona.qoe.mean_engagement, baseline.qoe.mean_engagement);
  EXPECT_LE(eona.peak_stalled_fraction,
            baseline.peak_stalled_fraction + 0.02);
}

TEST_F(FlashCrowdShape, CongestionWindowIsVisibleInTheSeries) {
  FlashCrowdConfig c = config(ControlMode::kEona);
  FlashCrowdResult result = run_flash_crowd(c);
  const auto& bitrate = result.metrics.series("mean_bitrate");
  double before = bitrate.time_weighted_mean(c.crowd_start - 60.0,
                                             c.crowd_start);
  double during = bitrate.time_weighted_mean(c.crowd_start + 50.0,
                                             c.crowd_end - 10.0);
  double after = bitrate.time_weighted_mean(c.crowd_end + 100.0,
                                            c.run_duration - 30.0);
  EXPECT_LT(during, before * 0.5) << "the crowd must squeeze bitrate";
  EXPECT_GT(after, during * 1.5) << "and it must recover";
  EXPECT_GT(result.mean_access_utilization, 0.8);
}

// --- E4: Fig 5 oscillation ------------------------------------------------------

class OscillationShape : public ::testing::Test {
 protected:
  static OscillationConfig config(ControlMode mode) {
    OscillationConfig c;
    c.mode = mode;
    c.run_duration = 1200.0;
    return c;
  }
};

TEST_F(OscillationShape, BaselineCyclesEonaConverges) {
  OscillationResult baseline = run_oscillation(config(ControlMode::kBaseline));
  OscillationResult eona = run_oscillation(config(ControlMode::kEona));

  // Baseline: the two blind loops keep flapping.
  EXPECT_GE(baseline.infp_switches + baseline.appp_switches, 4u);
  EXPECT_GE(baseline.infp_reversals, 2u);
  EXPECT_FALSE(baseline.green_path);

  // EONA: the forecast + peering status break the cycle...
  EXPECT_TRUE(eona.converged);
  EXPECT_EQ(eona.appp_switches, 0u);
  EXPECT_EQ(eona.infp_switches, 0u);
  // ...landing on the paper's green path (X via the IXP).
  EXPECT_TRUE(eona.green_path);
  // With better experience.
  EXPECT_LT(eona.qoe.mean_buffering, baseline.qoe.mean_buffering + 1e-9);
  EXPECT_GT(eona.qoe.mean_bitrate, baseline.qoe.mean_bitrate);
}

TEST_F(OscillationShape, DampeningReducesBaselineFlapping) {
  OscillationConfig undamped = config(ControlMode::kBaseline);
  OscillationConfig damped = undamped;
  damped.infp_dwell = 600.0;
  damped.appp_dwell = 600.0;
  OscillationResult loose = run_oscillation(undamped);
  OscillationResult tight = run_oscillation(damped);
  EXPECT_LT(tight.infp_switches + tight.appp_switches,
            loose.infp_switches + loose.appp_switches);
}

// --- E5: §2 coarse control --------------------------------------------------------

TEST(CoarseControlShape, ServerHintsBeatWholeCdnSwitching) {
  CoarseControlConfig config;
  config.run_duration = 700.0;
  config.mode = ControlMode::kBaseline;
  CoarseControlResult baseline = run_coarse_control(config);
  config.mode = ControlMode::kEona;
  CoarseControlResult eona = run_coarse_control(config);

  ASSERT_GT(baseline.post_incident.sessions, 20u);
  // Baseline can only switch CDNs; EONA switches servers inside CDN 1.
  EXPECT_GT(baseline.cdn_switches, eona.cdn_switches);
  EXPECT_GT(eona.server_switches, 0u);
  EXPECT_EQ(baseline.server_switches, 0u);
  // CDN 1 keeps (at least as much of) the traffic when hints exist -- the
  // revenue argument of §2. Most sessions never touch the degraded server,
  // so the shares are close; the claim is that hints do not cost CDN 1.
  EXPECT_GE(eona.cdn1_traffic_share, baseline.cdn1_traffic_share - 0.05);
  // And the clients are clearly better off (cold rival caches + reconnect
  // thrash hurt the baseline).
  EXPECT_GT(eona.post_incident.mean_engagement,
            baseline.post_incident.mean_engagement);
}

// --- E6: §2/§5 energy ---------------------------------------------------------------

TEST(EnergyShape, GuardrailTradesAWhiskerOfSavingsForQoe) {
  EnergyScenarioConfig config;
  config.scale_down_load = 0.70;  // aggressive operator
  config.cycles = 1;
  config.eona = false;
  EnergyScenarioResult baseline = run_energy(config);
  config.eona = true;
  EnergyScenarioResult eona = run_energy(config);

  ASSERT_GT(baseline.qoe.sessions, 100u);
  EXPECT_GT(baseline.saved_fraction, 0.1);
  EXPECT_GT(eona.saved_fraction, 0.1);
  // The guarded controller never does worse on experience...
  EXPECT_LE(eona.qoe.mean_buffering, baseline.qoe.mean_buffering + 1e-9);
  EXPECT_GE(eona.qoe.mean_engagement, baseline.qoe.mean_engagement - 1e-9);
  // ...at a bounded cost in savings.
  EXPECT_GT(eona.saved_fraction, baseline.saved_fraction * 0.8);
}

// --- E3: Fig 4 inference vs direct measurement ---------------------------------------

TEST(CellularWebShape, DirectMeasurementBeatsInference) {
  CellularWebConfig config;
  config.sessions = 800;
  CellularWebResult result = run_cellular_web(config);
  ASSERT_GT(result.evaluated, 300u);
  // Per-sector estimates: A2I is the measurement itself (error ~ 0);
  // inference carries model bias.
  EXPECT_LT(result.a2i_group_mae, 1e-9);
  EXPECT_GT(result.inference_group_mae, result.a2i_group_mae + 0.01);
  EXPECT_GE(result.a2i_rank_corr, result.inference_rank_corr - 1e-9);
}

TEST(CellularWebShape, FeatureNoiseWidensTheGap) {
  CellularWebConfig clean;
  clean.sessions = 800;
  clean.feature_noise = 0.0;
  CellularWebConfig noisy = clean;
  noisy.feature_noise = 1.0;
  CellularWebResult low = run_cellular_web(clean);
  CellularWebResult high = run_cellular_web(noisy);
  EXPECT_GT(high.inference_mae, low.inference_mae);
  EXPECT_NEAR(high.a2i_mae, low.a2i_mae, 0.02)
      << "direct measurement is immune to the InfP's measurement noise";
}

TEST(CellularWebShape, KAnonymitySuppressesThinSectors) {
  CellularWebConfig config;
  config.sessions = 400;
  config.sectors = 8;
  config.k_anonymity = 10000;  // absurd floor: everything suppressed
  CellularWebResult result = run_cellular_web(config);
  EXPECT_EQ(result.suppressed_sectors, 8u);
}

// --- determinism across the board ------------------------------------------------------

TEST(ScenarioDeterminism, SameSeedSameResult) {
  FlashCrowdConfig config;
  config.run_duration = 400.0;
  config.crowd_start = 100.0;
  config.crowd_end = 250.0;
  FlashCrowdResult a = run_flash_crowd(config);
  FlashCrowdResult b = run_flash_crowd(config);
  EXPECT_EQ(a.qoe.sessions, b.qoe.sessions);
  EXPECT_DOUBLE_EQ(a.qoe.mean_buffering, b.qoe.mean_buffering);
  EXPECT_DOUBLE_EQ(a.qoe.mean_bitrate, b.qoe.mean_bitrate);
  EXPECT_EQ(a.qoe.cdn_switches, b.qoe.cdn_switches);
}

TEST(ScenarioDeterminism, DifferentSeedsDiffer) {
  FlashCrowdConfig config;
  config.run_duration = 400.0;
  config.crowd_start = 100.0;
  config.crowd_end = 250.0;
  FlashCrowdResult a = run_flash_crowd(config);
  config.seed = 999;
  FlashCrowdResult b = run_flash_crowd(config);
  EXPECT_NE(a.qoe.sessions, b.qoe.sessions);
}

// --- --perf counters ---------------------------------------------------------------

TEST(ScenarioPerf, CountersAreFoldedAfterTheRun) {
  // A runner that folds RunPerf before its scheduler runs reports zero
  // events; every runner must fold after the drain. The broker counters
  // must match what the scenario itself reports.
  const std::map<std::string, std::map<std::string, std::string>> small = {
      {"scale", {{"sessions", "200"}, {"sectors", "2"}}},
      {"broker_outage",
       {{"run_duration", "420"}, {"heavy_arrival_rate", "0.5"}}},
  };
  for (const std::string& scenario : scenario_names()) {
    std::map<std::string, std::string> overrides{{"seed", "1"}};
    if (auto it = small.find(scenario); it != small.end())
      overrides.insert(it->second.begin(), it->second.end());
    RunPerf perf;
    const core::JsonValue out = run_scenario_json(
        scenario, overrides, nullptr, nullptr, nullptr, &perf);
    EXPECT_GT(perf.events, 0u) << scenario;
    if (scenario == "federation" || scenario == "broker_outage") {
      EXPECT_GT(perf.clamp_count, 0u) << scenario;
      EXPECT_EQ(static_cast<double>(perf.clamp_count),
                out.at("clamps").as_number())
          << scenario;
    }
    if (scenario == "broker_outage") {
      EXPECT_GT(perf.epoch_rejected, 0u);
      EXPECT_EQ(static_cast<double>(perf.epoch_rejected),
                out.at("epoch_rejected").as_number());
    }
  }
}

}  // namespace
}  // namespace eona::scenarios
