// scenarios::run_sweep: parallel fan-out must be an implementation detail.
// Runs come back in job order, errors propagate, and the collated sweep
// JSON is byte-identical for any thread count.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "scenarios/sweep.hpp"

namespace eona {
namespace {

scenarios::SweepSpec small_flashcrowd_spec(std::size_t threads) {
  scenarios::SweepSpec spec;
  spec.scenario = "flashcrowd";
  spec.seeds = {1, 2, 3};
  spec.modes = {"baseline", "eona"};
  spec.overrides["run_duration"] = "40";
  spec.overrides["arrival_rate"] = "0.5";
  spec.threads = threads;
  return spec;
}

TEST(RunSweepTest, CollatedJsonIsByteIdenticalAcrossThreadCounts) {
  std::string serial = scenarios::run_sweep(small_flashcrowd_spec(1)).dump(2);
  std::string pooled = scenarios::run_sweep(small_flashcrowd_spec(4)).dump(2);
  EXPECT_EQ(serial, pooled);
}

TEST(RunSweepTest, ExpandsSeedMajorModeMinorGrid) {
  core::JsonValue out = scenarios::run_sweep(small_flashcrowd_spec(2));
  EXPECT_EQ(out.at("scenario").as_string(), "flashcrowd");
  EXPECT_EQ(static_cast<int>(out.at("run_count").as_number()), 6);
  const auto& runs = out.at("runs").as_array();
  ASSERT_EQ(runs.size(), 6u);
  // seed-major, mode-minor: (1,baseline) (1,eona) (2,baseline) ...
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(static_cast<int>(runs[i].at("seed").as_number()),
              static_cast<int>(i / 2) + 1);
}

TEST(RunSweepTest, RejectsEmptySpec) {
  scenarios::SweepSpec no_scenario;
  no_scenario.seeds = {1};
  EXPECT_THROW(scenarios::run_sweep(no_scenario), ConfigError);

  scenarios::SweepSpec no_seeds;
  no_seeds.scenario = "flashcrowd";
  no_seeds.seeds.clear();
  EXPECT_THROW(scenarios::run_sweep(no_seeds), ConfigError);
}

TEST(RunSweepTest, UnknownScenarioThrows) {
  scenarios::SweepSpec spec;
  spec.scenario = "nope";
  spec.seeds = {1};
  EXPECT_THROW(scenarios::run_sweep(spec), ConfigError);
}

}  // namespace
}  // namespace eona
