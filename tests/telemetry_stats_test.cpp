// Tests for the streaming statistics: Welford mean/variance (including the
// parallel merge) and the P² quantile estimator, with parameterized
// accuracy sweeps across distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "sim/rng.hpp"
#include "telemetry/p2_quantile.hpp"
#include "telemetry/welford.hpp"

namespace eona::telemetry {
namespace {

TEST(Welford, MatchesExactMomentsOnSmallData) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 4.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, EmptyQueriesAreContractViolations) {
  Welford w;
  EXPECT_TRUE(w.empty());
  EXPECT_THROW((void)w.mean(), ContractViolation);
  EXPECT_THROW((void)w.variance(), ContractViolation);
}

TEST(Welford, SingleObservationHasZeroVariance) {
  Welford w;
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.mean(), 3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
}

TEST(Welford, MergeWithEmptySides) {
  Welford w, empty;
  w.add(1.0);
  w.add(3.0);
  Welford copy = w;
  copy.merge(empty);
  EXPECT_DOUBLE_EQ(copy.mean(), 2.0);
  empty.merge(w);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_EQ(empty.count(), 2u);
}

/// Property: splitting a stream at any point and merging gives the same
/// moments as one pass.
class WelfordMergeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WelfordMergeTest, MergeEqualsOnePass) {
  sim::Rng rng(GetParam());
  std::vector<double> data;
  auto n = static_cast<std::size_t>(rng.uniform_int(2, 500));
  for (std::size_t i = 0; i < n; ++i) data.push_back(rng.normal(5.0, 3.0));
  auto split = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n)));

  Welford whole, left, right;
  for (double x : data) whole.add(x);
  for (std::size_t i = 0; i < split; ++i) left.add(data[i]);
  for (std::size_t i = split; i < n; ++i) right.add(data[i]);
  left.merge(right);

  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WelfordMergeTest,
                         ::testing::Range<std::uint64_t>(0, 25));

// --- P² quantile -------------------------------------------------------------

TEST(P2Quantile, InvalidQuantileIsAContractViolation) {
  EXPECT_THROW(P2Quantile(0.0), ContractViolation);
  EXPECT_THROW(P2Quantile(1.0), ContractViolation);
}

TEST(P2Quantile, SmallSampleFallsBackToNearestRank) {
  P2Quantile q(0.5);
  EXPECT_THROW((void)q.value(), ContractViolation);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.value(), 10.0);
  q.add(20.0);
  q.add(30.0);
  EXPECT_DOUBLE_EQ(q.value(), 20.0);  // median of {10,20,30}
}

struct QuantileCase {
  const char* name;
  double q;
  double (*draw)(sim::Rng&);
  double exact;       ///< analytic quantile
  double tolerance;   ///< absolute
};

// gtest puts the printed parameter into the discovered test name. Its default
// byte dump includes the `name` pointer, which moves with ASLR, so the name
// would change on every discovery; print the case name instead.
void PrintTo(const QuantileCase& c, std::ostream* os) { *os << c.name; }

class P2AccuracyTest : public ::testing::TestWithParam<QuantileCase> {};

TEST_P(P2AccuracyTest, EstimateConverges) {
  const QuantileCase& c = GetParam();
  P2Quantile estimator(c.q);
  sim::Rng rng(777);
  for (int i = 0; i < 50000; ++i) estimator.add(c.draw(rng));
  EXPECT_NEAR(estimator.value(), c.exact, c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, P2AccuracyTest,
    ::testing::Values(
        QuantileCase{"uniform_median", 0.5,
                     [](sim::Rng& r) { return r.uniform(0, 1); }, 0.5, 0.02},
        QuantileCase{"uniform_p90", 0.9,
                     [](sim::Rng& r) { return r.uniform(0, 1); }, 0.9, 0.02},
        QuantileCase{"normal_median", 0.5,
                     [](sim::Rng& r) { return r.normal(10, 2); }, 10.0, 0.1},
        // N(10,2) p90 = 10 + 1.2816*2.
        QuantileCase{"normal_p90", 0.9,
                     [](sim::Rng& r) { return r.normal(10, 2); }, 12.563, 0.15},
        // Exp(mean 2) p90 = -2 ln(0.1).
        QuantileCase{"exponential_p90", 0.9,
                     [](sim::Rng& r) { return r.exponential(2.0); }, 4.605,
                     0.25},
        QuantileCase{"exponential_p50", 0.5,
                     [](sim::Rng& r) { return r.exponential(2.0); }, 1.386,
                     0.1}),
    [](const ::testing::TestParamInfo<QuantileCase>& info) {
      return info.param.name;
    });

TEST(P2Quantile, MonotoneUnderSortedInsertions) {
  P2Quantile q(0.5);
  for (int i = 1; i <= 1000; ++i) q.add(static_cast<double>(i));
  EXPECT_NEAR(q.value(), 500.0, 25.0);
}

TEST(P2Quantile, TracksExtremesSanely) {
  P2Quantile q(0.9);
  sim::Rng rng(5);
  double max_seen = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(0, 100);
    max_seen = std::max(max_seen, x);
    q.add(x);
  }
  EXPECT_LE(q.value(), max_seen);
  EXPECT_GE(q.value(), 0.0);
}

}  // namespace
}  // namespace eona::telemetry
