// Tests for the deterministic RNG facade and the Zipf sampler: determinism,
// stream independence, and distribution sanity (parameterized sweeps).
#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

namespace eona::sim {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // Forking then draining the parent must not change the child's stream.
  Rng parent1(7);
  Rng child1 = parent1.fork();
  std::vector<double> child1_draws;
  for (int i = 0; i < 10; ++i) child1_draws.push_back(child1.uniform(0, 1));

  Rng parent2(7);
  Rng child2 = parent2.fork();
  for (int i = 0; i < 50; ++i) parent2.uniform(0, 1);  // drain parent
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(child2.uniform(0, 1), child1_draws[i]);
}

TEST(Rng, ForkSaltedSeedIsPinned) {
  // flashcrowd's A2I fault seed at run seed 1; scale's sector seeds come
  // from the same derivation.
  EXPECT_EQ(Rng(1).fork_salted(0xA21).seed(), 4540718978803362655ull);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t x = rng.uniform_int(0, 4);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 4);
    saw_lo = saw_lo || x == 0;
    saw_hi = saw_hi || x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, InvalidBoundsAreContractViolations) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
  EXPECT_THROW(rng.pareto(0.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.poisson(-1.0), ContractViolation);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalWithZeroSigmaReturnsMean) {
  Rng rng(6);
  EXPECT_DOUBLE_EQ(rng.normal(3.14, 0.0), 3.14);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(8);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

// --- parameterized distribution-mean checks --------------------------------

struct MeanCase {
  const char* name;
  double expected_mean;
  double tolerance;
  double (*draw)(Rng&);
};

// gtest puts the printed parameter into the discovered test name. Its default
// byte dump includes the `name` pointer, which moves with ASLR, so the name
// would change on every discovery; print the case name instead.
void PrintTo(const MeanCase& c, std::ostream* os) { *os << c.name; }

class RngMeanTest : public ::testing::TestWithParam<MeanCase> {};

TEST_P(RngMeanTest, EmpiricalMeanMatches) {
  const MeanCase& c = GetParam();
  Rng rng(1234);
  double total = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += c.draw(rng);
  EXPECT_NEAR(total / kSamples, c.expected_mean, c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, RngMeanTest,
    ::testing::Values(
        MeanCase{"uniform01", 0.5, 0.02,
                 [](Rng& r) { return r.uniform(0, 1); }},
        MeanCase{"exponential_mean3", 3.0, 0.1,
                 [](Rng& r) { return r.exponential(3.0); }},
        MeanCase{"normal_mu2", 2.0, 0.05,
                 [](Rng& r) { return r.normal(2.0, 1.0); }},
        MeanCase{"poisson_mean4", 4.0, 0.1,
                 [](Rng& r) { return static_cast<double>(r.poisson(4.0)); }},
        MeanCase{"bernoulli_03", 0.3, 0.02,
                 [](Rng& r) { return r.bernoulli(0.3) ? 1.0 : 0.0; }},
        // Pareto(xm=1, alpha=3) has mean alpha*xm/(alpha-1) = 1.5.
        MeanCase{"pareto_a3", 1.5, 0.1,
                 [](Rng& r) { return r.pareto(1.0, 3.0); }}),
    [](const ::testing::TestParamInfo<MeanCase>& info) {
      return info.param.name;
    });

// --- Zipf sampler ------------------------------------------------------------

TEST(ZipfSampler, ProbabilitiesAreNormalisedAndDecreasing) {
  ZipfSampler zipf(10, 1.0);
  double total = 0.0;
  for (std::size_t r = 0; r < 10; ++r) {
    total += zipf.probability(r);
    if (r > 0) {
      EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSampler, SkewZeroIsUniform) {
  ZipfSampler zipf(5, 0.0);
  for (std::size_t r = 0; r < 5; ++r)
    EXPECT_NEAR(zipf.probability(r), 0.2, 1e-12);
}

TEST(ZipfSampler, EmpiricalFrequenciesMatchAnalytic) {
  ZipfSampler zipf(8, 0.8);
  Rng rng(99);
  std::vector<int> counts(8, 0);
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 8; ++r) {
    double freq = static_cast<double>(counts[r]) / kSamples;
    EXPECT_NEAR(freq, zipf.probability(r), 0.01) << "rank " << r;
  }
}

TEST(ZipfSampler, RejectsEmptyDomain) {
  EXPECT_THROW(ZipfSampler(0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace eona::sim
