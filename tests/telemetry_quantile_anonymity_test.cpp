// Coverage for two small telemetry pieces the pipeline leans on:
//  - P2Quantile (streaming P-square estimator) checked against an exact
//    nth_element oracle -- exact below 5 samples, within a tolerance above;
//  - k_anonymity_gate suppression boundaries (records == k survives,
//    records == k-1 does not).
#include "telemetry/anonymity.hpp"
#include "telemetry/p2_quantile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/contracts.hpp"

namespace eona::telemetry {
namespace {

/// Exact ceil-rank quantile -- the convention P2Quantile::value() documents
/// for its small-sample fallback.
double exact_quantile(std::vector<double> sample, double q) {
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), sample.size());
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   sample.end());
  return sample[rank - 1];
}

TEST(P2Quantile, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), ContractViolation);
  EXPECT_THROW((void)P2Quantile(0.5).value(), ContractViolation);  // empty
}

TEST(P2Quantile, UnderFiveSamplesIsExact) {
  // The bootstrap phase stores raw observations, so the estimate must equal
  // the exact ceil-rank quantile for 1..4 samples, in any arrival order.
  const std::vector<double> stream = {7.0, -2.0, 11.0, 3.0};
  for (double q : {0.1, 0.5, 0.9}) {
    P2Quantile est(q);
    std::vector<double> seen;
    for (double x : stream) {
      est.add(x);
      seen.push_back(x);
      EXPECT_EQ(est.value(), exact_quantile(seen, q))
          << "q=" << q << " n=" << seen.size();
    }
  }
}

TEST(P2Quantile, ConstantStreamIsExact) {
  P2Quantile est(0.9);
  for (int i = 0; i < 1000; ++i) est.add(5.5);
  EXPECT_EQ(est.value(), 5.5);
  EXPECT_EQ(est.count(), 1000u);
}

TEST(P2Quantile, TracksUniformStreamWithinTolerance) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  for (double q : {0.5, 0.9}) {
    P2Quantile est(q);
    std::vector<double> all;
    for (int i = 0; i < 20000; ++i) {
      double x = dist(rng);
      est.add(x);
      all.push_back(x);
    }
    // P^2 is an estimator; on a smooth distribution it lands within a
    // couple of percent of the exact order statistic.
    EXPECT_NEAR(est.value(), exact_quantile(all, q), 2.0) << "q=" << q;
  }
}

TEST(P2Quantile, TracksSkewedStreamWithinTolerance) {
  // Exponential-ish tail: the p90 sits well away from the median, which is
  // where naive five-point estimators drift.
  std::mt19937_64 rng(23);
  std::exponential_distribution<double> dist(0.1);
  P2Quantile est(0.9);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    double x = dist(rng);
    est.add(x);
    all.push_back(x);
  }
  double exact = exact_quantile(all, 0.9);  // ~23 for lambda = 0.1
  EXPECT_NEAR(est.value(), exact, 0.1 * exact);
}

TEST(P2Quantile, SortedInputDoesNotBreakMonotonicity) {
  P2Quantile est(0.5);
  for (int i = 0; i < 10000; ++i) est.add(static_cast<double>(i));
  EXPECT_NEAR(est.value(), 5000.0, 500.0);
}

// --- k-anonymity gate ----------------------------------------------------

std::pair<Dimensions, MetricAggregate> group(std::uint32_t isp,
                                             std::uint64_t records) {
  Dimensions d;
  d.isp = IspId(isp);
  MetricAggregate agg;
  agg.records = records;
  return {d, agg};
}

TEST(KAnonymityGate, RecordsAtExactlyKSurvive) {
  auto gated = k_anonymity_gate({group(0, 5), group(1, 4), group(2, 6)}, 5);
  ASSERT_EQ(gated.groups.size(), 2u);
  EXPECT_EQ(gated.groups[0].first.isp, IspId(0));  // == k: kept
  EXPECT_EQ(gated.groups[1].first.isp, IspId(2));
  EXPECT_EQ(gated.suppressed_groups, 1u);   // k-1: suppressed
  EXPECT_EQ(gated.suppressed_records, 4u);
}

TEST(KAnonymityGate, KOfOneKeepsEveryNonEmptyGroup) {
  auto gated = k_anonymity_gate({group(0, 1), group(1, 100)}, 1);
  EXPECT_EQ(gated.groups.size(), 2u);
  EXPECT_EQ(gated.suppressed_groups, 0u);
  EXPECT_EQ(gated.suppressed_records, 0u);
}

TEST(KAnonymityGate, SuppressionCountsSumAcrossGroups) {
  auto gated =
      k_anonymity_gate({group(0, 1), group(1, 2), group(2, 3)}, 10);
  EXPECT_TRUE(gated.groups.empty());
  EXPECT_EQ(gated.suppressed_groups, 3u);
  EXPECT_EQ(gated.suppressed_records, 6u);
}

TEST(KAnonymityGate, PreservesInputOrderOfSurvivors) {
  auto gated = k_anonymity_gate(
      {group(3, 10), group(1, 10), group(2, 1), group(0, 10)}, 2);
  ASSERT_EQ(gated.groups.size(), 3u);
  EXPECT_EQ(gated.groups[0].first.isp, IspId(3));
  EXPECT_EQ(gated.groups[1].first.isp, IspId(1));
  EXPECT_EQ(gated.groups[2].first.isp, IspId(0));
}

TEST(KAnonymityGate, RejectsZeroK) {
  EXPECT_THROW(k_anonymity_gate({}, 0), ContractViolation);
}

}  // namespace
}  // namespace eona::telemetry
