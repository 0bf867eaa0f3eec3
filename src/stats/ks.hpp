#pragma once

#include <vector>

namespace casurf::stats {

/// Result of a Kolmogorov-Smirnov goodness-of-fit test.
struct KsResult {
  double statistic = 0;  ///< D_n = sup |F_emp - F_theory|
  double p_value = 0;    ///< asymptotic Kolmogorov distribution tail
  [[nodiscard]] bool reject(double alpha = 0.01) const { return p_value < alpha; }
};

/// One-sample KS test of `samples` against Exp(rate). This operationalizes
/// Segers' first correctness criterion (paper section 6): the waiting time
/// of a reaction of type i must be distributed as exp(-k_i t).
[[nodiscard]] KsResult ks_exponential(std::vector<double> samples, double rate);

/// One-sample KS test against U(0, 1) (RNG sanity checks).
[[nodiscard]] KsResult ks_uniform01(std::vector<double> samples);

/// Asymptotic Kolmogorov tail Q(x) = 2 sum (-1)^{k-1} exp(-2 k^2 x^2),
/// evaluated at x = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D.
[[nodiscard]] double kolmogorov_p(double d_statistic, std::size_t n);

/// Pearson chi-square p-value upper bound via the regularized incomplete
/// gamma (for category-count tests, e.g. Segers' second criterion: events
/// of type i occur in proportion k_i / K). Since Q(a, x) =
/// chi_square_p(2x, 2a), it is also the upper tail of Gamma(a, 1); the
/// series and continued fraction run to 1e-12 relative at any dof, and
/// std::runtime_error reports a cap hit instead of a truncated sum.
[[nodiscard]] double chi_square_p(double statistic, std::size_t dof);

}  // namespace casurf::stats
