#include "stats/ks.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

namespace casurf::stats {

namespace {

KsResult ks_against(std::vector<double> samples,
                    const std::function<double(double)>& cdf) {
  if (samples.size() < 8) {
    throw std::invalid_argument("ks test: need at least 8 samples");
  }
  std::ranges::sort(samples);
  const auto n = static_cast<double>(samples.size());
  double d = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(f - lo), std::abs(hi - f)});
  }
  KsResult r;
  r.statistic = d;
  r.p_value = kolmogorov_p(d, samples.size());
  return r;
}

}  // namespace

double kolmogorov_p(double d_statistic, std::size_t n) {
  const double sn = std::sqrt(static_cast<double>(n));
  const double x = (sn + 0.12 + 0.11 / sn) * d_statistic;
  if (x < 0.2) return 1.0;
  double sum = 0;
  double sign = 1;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * x * x);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsResult ks_exponential(std::vector<double> samples, double rate) {
  if (!(rate > 0)) throw std::invalid_argument("ks_exponential: rate must be positive");
  return ks_against(std::move(samples),
                    [rate](double t) { return t <= 0 ? 0.0 : 1.0 - std::exp(-rate * t); });
}

KsResult ks_uniform01(std::vector<double> samples) {
  return ks_against(std::move(samples),
                    [](double u) { return std::clamp(u, 0.0, 1.0); });
}

double chi_square_p(double statistic, std::size_t dof) {
  if (dof == 0) throw std::invalid_argument("chi_square_p: zero dof");
  if (statistic <= 0) return 1.0;
  // Regularized upper incomplete gamma Q(dof/2, x/2) via series/continued
  // fraction (Numerical Recipes style).
  const double a = static_cast<double>(dof) / 2.0;
  const double x = statistic / 2.0;
  const double gln = std::lgamma(a);
  // Both expansions need O(sqrt(a)) terms where x is near a (the series'
  // terms fall off like exp(-k^2 / 2a)); the cap leaves a wide margin over
  // that and is an error, never a silent partial sum.
  const double max_terms = 500.0 + 50.0 * std::sqrt(a);
  const auto not_converged = [&] {
    return std::runtime_error("chi_square_p: no convergence at dof " + std::to_string(dof) +
                              ", statistic " + std::to_string(statistic));
  };
  if (x < a + 1.0) {
    // Series for P(a, x), return 1 - P.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (double i = 0;; ++i) {
      if (i >= max_terms) throw not_converged();
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::abs(del) < std::abs(sum) * 1e-12) break;
    }
    const double p = sum * std::exp(-x + a * std::log(x) - gln);
    return std::clamp(1.0 - p, 0.0, 1.0);
  }
  // Continued fraction for Q(a, x).
  double b = x + 1.0 - a;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (double i = 1;; ++i) {
    if (i > max_terms) throw not_converged();
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::abs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-12) break;
  }
  const double q = std::exp(-x + a * std::log(x) - gln) * h;
  return std::clamp(q, 0.0, 1.0);
}

}  // namespace casurf::stats
