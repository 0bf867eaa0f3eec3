#include "stats/ks.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace casurf {
namespace {

TEST(Ks, ExponentialSamplesAccepted) {
  Xoshiro256 rng(1);
  std::vector<double> samples(3000);
  for (double& s : samples) s = exponential(rng, 3.0);
  const auto r = stats::ks_exponential(samples, 3.0);
  EXPECT_FALSE(r.reject(0.01));
  EXPECT_LT(r.statistic, 0.05);
}

TEST(Ks, WrongRateRejected) {
  Xoshiro256 rng(2);
  std::vector<double> samples(3000);
  for (double& s : samples) s = exponential(rng, 3.0);
  const auto r = stats::ks_exponential(samples, 1.0);  // claim rate 1, truth 3
  EXPECT_TRUE(r.reject(0.01));
}

TEST(Ks, UniformSamplesAccepted) {
  Xoshiro256 rng(3);
  std::vector<double> samples(3000);
  for (double& s : samples) s = uniform01(rng);
  EXPECT_FALSE(stats::ks_uniform01(samples).reject(0.01));
}

TEST(Ks, NonUniformRejected) {
  Xoshiro256 rng(4);
  std::vector<double> samples(3000);
  for (double& s : samples) s = uniform01(rng) * uniform01(rng);  // skewed
  EXPECT_TRUE(stats::ks_uniform01(samples).reject(0.01));
}

TEST(Ks, TooFewSamplesThrows) {
  EXPECT_THROW((void)stats::ks_uniform01({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW((void)stats::ks_exponential({0.1}, 1.0), std::invalid_argument);
}

TEST(Ks, InvalidRateThrows) {
  std::vector<double> ten(10, 0.5);
  EXPECT_THROW((void)stats::ks_exponential(ten, 0.0), std::invalid_argument);
}

TEST(KolmogorovP, KnownValues) {
  // D * (sqrt(n)+...) = x; Q(0.83) ~ 0.50, Q(1.36) ~ 0.049.
  EXPECT_NEAR(stats::kolmogorov_p(0.83 / 31.75, 1000), 0.5, 0.02);
  EXPECT_NEAR(stats::kolmogorov_p(1.36 / 31.75, 1000), 0.049, 0.005);
  EXPECT_DOUBLE_EQ(stats::kolmogorov_p(0.0, 100), 1.0);
}

TEST(ChiSquareP, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(stats::chi_square_p(0.0, 3), 1.0);
  EXPECT_LT(stats::chi_square_p(1000.0, 3), 1e-10);
  EXPECT_THROW((void)stats::chi_square_p(1.0, 0), std::invalid_argument);
}

TEST(ChiSquareP, KnownQuantiles) {
  // chi2_{0.95, 1} = 3.841; chi2_{0.95, 5} = 11.07; chi2_{0.99, 2} = 9.21.
  EXPECT_NEAR(stats::chi_square_p(3.841, 1), 0.05, 0.003);
  EXPECT_NEAR(stats::chi_square_p(11.07, 5), 0.05, 0.003);
  EXPECT_NEAR(stats::chi_square_p(9.21, 2), 0.01, 0.002);
}

TEST(ChiSquareP, MonotoneDecreasingInStatistic) {
  double last = 1.0;
  for (double x = 0.5; x < 20; x += 0.5) {
    const double p = stats::chi_square_p(x, 4);
    EXPECT_LE(p, last);
    last = p;
  }
}

TEST(ChiSquareP, NonConvergenceThrowsInsteadOfTruncating) {
  // A NaN statistic never meets the tolerance, so it runs into the cap.
  EXPECT_THROW((void)stats::chi_square_p(std::nan(""), 4), std::runtime_error);
}

// Large dof, where P(a, x) near x = a needs about 7 sqrt(a) series terms:
// the Gamma time-law tests evaluate Q(n, NK t) = chi_square_p(2 NK t, 2n)
// at chunk shapes up to 50,000 (dof 10^5).
class ChiSquareLargeDof : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChiSquareLargeDof, MatchesWilsonHilferty) {
  // (X/k)^(1/3) ~ N(1 - 2/(9k), 2/(9k)); the approximation's own error is
  // O(k^-3/2), far below the tolerance at these k.
  const std::size_t k = GetParam();
  const double v = 2.0 / (9.0 * static_cast<double>(k));
  for (const double z : {-2.0, -1.0, 0.0, 1.0, 2.0}) {
    const double x = static_cast<double>(k) * std::pow(1.0 - v + z * std::sqrt(v), 3);
    const double cdf = 1.0 - stats::chi_square_p(x, k);
    EXPECT_NEAR(cdf, 0.5 * std::erfc(-z / std::sqrt(2.0)), 1e-5) << "z = " << z;
  }
}

TEST_P(ChiSquareLargeDof, ContinuousWhereSeriesHandsOverToFraction) {
  // The series serves x < a + 1 and the continued fraction the rest; at
  // the switch (statistic k + 2) the density is about 1/sqrt(2 pi k), so
  // a 1e-6 step moves the tail by under 1e-8.
  const std::size_t k = GetParam();
  const double at = static_cast<double>(k) + 2.0;
  const double below = stats::chi_square_p(at - 1e-6, k);
  const double above = stats::chi_square_p(at + 1e-6, k);
  EXPECT_GE(below, above);
  EXPECT_LT(below - above, 1e-8);
}

std::string dof_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return "dof_" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Dof, ChiSquareLargeDof, ::testing::Values(40000u, 100000u), dof_name);

}  // namespace
}  // namespace casurf
