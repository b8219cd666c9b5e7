// Tests for the inference substrate: linear solver, ridge regression, and
// Spearman rank correlation.
#include "qoe/inference.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/rng.hpp"

namespace eona::qoe {
namespace {

TEST(LinearSolver, SolvesSmallSystemExactly) {
  // x + y = 3, x - y = 1  ->  x = 2, y = 1.
  auto x = solve_linear_system({{1, 1}, {1, -1}}, {3, 1});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LinearSolver, NeedsPivoting) {
  // Leading zero forces a row swap.
  auto x = solve_linear_system({{0, 1}, {1, 0}}, {5, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 5.0, 1e-12);
}

TEST(LinearSolver, SingularSystemThrows) {
  EXPECT_THROW(solve_linear_system({{1, 1}, {2, 2}}, {1, 2}), ConfigError);
}

TEST(LinearSolver, ShapeMismatchIsAContractViolation) {
  EXPECT_THROW(solve_linear_system({{1, 0}, {0, 1}}, {1}),
               ContractViolation);
}

TEST(Ridge, RecoversALinearFunction) {
  sim::Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.uniform(-5, 5), b = rng.uniform(-5, 5);
    x.push_back({a, b});
    y.push_back(3.0 * a - 2.0 * b + 7.0);
  }
  RidgeRegression model(1e-6);
  model.fit(x, y);
  ASSERT_EQ(model.weights().size(), 2u);
  EXPECT_NEAR(model.weights()[0], 3.0, 1e-3);
  EXPECT_NEAR(model.weights()[1], -2.0, 1e-3);
  EXPECT_NEAR(model.bias(), 7.0, 1e-3);
  EXPECT_NEAR(model.predict({1.0, 1.0}), 8.0, 1e-3);
  EXPECT_LT(model.mae(x, y), 1e-3);
}

TEST(Ridge, NoisyFitHasBoundedError) {
  sim::Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    double a = rng.uniform(0, 10);
    x.push_back({a});
    y.push_back(2.0 * a + rng.normal(0.0, 1.0));
  }
  RidgeRegression model(1e-3);
  model.fit(x, y);
  EXPECT_NEAR(model.weights()[0], 2.0, 0.1);
  double mae = model.mae(x, y);
  EXPECT_GT(mae, 0.5);  // noise floor ~ E|N(0,1)| = 0.8
  EXPECT_LT(mae, 1.2);
}

TEST(Ridge, RegularisationShrinksWeights) {
  std::vector<std::vector<double>> x{{1}, {2}, {3}, {4}};
  std::vector<double> y{2, 4, 6, 8};
  RidgeRegression weak(1e-9), strong(100.0);
  weak.fit(x, y);
  strong.fit(x, y);
  EXPECT_GT(weak.weights()[0], strong.weights()[0]);
}

TEST(Ridge, BadInputsThrow) {
  RidgeRegression model;
  EXPECT_THROW(model.fit({}, {}), ConfigError);
  EXPECT_THROW(model.fit({{1.0}}, {1.0, 2.0}), ConfigError);
  EXPECT_THROW(model.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}), ConfigError);
  EXPECT_THROW((void)model.predict({1.0}), ContractViolation);  // not fitted
}

TEST(Spearman, PerfectMonotoneIsOne) {
  EXPECT_NEAR(spearman_correlation({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0,
              1e-12);
  // Monotone but nonlinear still gives 1 (rank correlation).
  EXPECT_NEAR(spearman_correlation({1, 2, 3, 4}, {1, 8, 27, 64}), 1.0, 1e-12);
}

TEST(Spearman, ReversedIsMinusOne) {
  EXPECT_NEAR(spearman_correlation({1, 2, 3}, {9, 5, 1}), -1.0, 1e-12);
}

TEST(Spearman, TiesShareRanks) {
  double rho = spearman_correlation({1, 2, 2, 3}, {1, 2, 2, 3});
  EXPECT_NEAR(rho, 1.0, 1e-12);
}

TEST(Spearman, ConstantInputGivesZero) {
  EXPECT_DOUBLE_EQ(spearman_correlation({5, 5, 5}, {1, 2, 3}), 0.0);
}

TEST(Spearman, IndependentIsNearZero) {
  sim::Rng rng(17);
  std::vector<double> a, b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.uniform(0, 1));
    b.push_back(rng.uniform(0, 1));
  }
  EXPECT_NEAR(spearman_correlation(a, b), 0.0, 0.05);
}

TEST(Spearman, InvalidInputsAreContractViolations) {
  EXPECT_THROW((void)spearman_correlation({1.0}, {1.0}), ContractViolation);
  EXPECT_THROW((void)spearman_correlation({1, 2}, {1, 2, 3}),
               ContractViolation);
}

}  // namespace
}  // namespace eona::qoe
