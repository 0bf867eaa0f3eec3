#pragma once

// Pearson chi-square helpers for the draw-law suites: goodness of fit of
// counts against expected counts, and independence of the two draws of a
// pair table against the product of its margins.

#include <cstddef>
#include <vector>

#include "stats/ks.hpp"

namespace casurf::law {

/// Pearson's statistic of `observed` counts against expected counts.
inline double pearson(const std::vector<double>& observed,
                      const std::vector<double>& expected) {
  double chi2 = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double d = observed[i] - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2;
}

/// The p-value of the independence test on a rows x cols table of pair
/// counts, row-major: expected cell counts are the products of the margins
/// over the total, with (rows - 1)(cols - 1) degrees of freedom. Every row
/// and column must hold a count.
inline double independence_p(const std::vector<double>& cell, std::size_t rows,
                             std::size_t cols) {
  std::vector<double> row(rows, 0.0), col(cols, 0.0);
  double total = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      row[r] += cell[r * cols + c];
      col[c] += cell[r * cols + c];
      total += cell[r * cols + c];
    }
  }
  std::vector<double> expected;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) expected.push_back(row[r] * col[c] / total);
  }
  return stats::chi_square_p(pearson(cell, expected), (rows - 1) * (cols - 1));
}

}  // namespace casurf::law
