#include "rng/distributions.hpp"

#include <stdexcept>

namespace casurf {

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weight vector");
  double total = 0;
  for (const double w : weights) {
    if (w < 0 || !std::isfinite(w)) {
      throw std::invalid_argument("AliasTable: weights must be finite and non-negative");
    }
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("AliasTable: total weight must be positive");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Vose's algorithm: split scaled probabilities into "small" (< 1) and
  // "large" (>= 1) work lists, pair them up.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are 1.0 up to rounding. They alias to themselves: the double
  // flip never reads their alias, but the 32-bit threshold of a full column
  // is 2^32 - 1, which sends one flip word in 2^32 to the alias.
  for (const std::uint32_t l : large) {
    prob_[l] = 1.0;
    alias_[l] = l;
  }
  for (const std::uint32_t s : small) {
    prob_[s] = 1.0;
    alias_[s] = s;
  }
  thr_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    thr_[i] = prob_[i] < 1.0 ? static_cast<std::uint32_t>(prob_[i] * 0x1.0p32)
                             : 0xffffffffu;
  }
}

std::vector<double> AliasTable::bits_probabilities() const {
  __extension__ using u128 = unsigned __int128;
  const std::uint64_t n = thr_.size();
  // The least high half of slot j is ceil(j * 2^32 / n).
  const auto first_high = [n](std::uint64_t j) { return ((j << 32) + n - 1) / n; };
  std::vector<u128> words(n, 0);  // of the 2^64 words, those drawing index i
  for (std::uint64_t j = 0; j < n; ++j) {
    const u128 highs = first_high(j + 1) - first_high(j);
    words[j] += highs * thr_[j];
    words[alias_[j]] += highs * ((std::uint64_t{1} << 32) - thr_[j]);
  }
  std::vector<double> p(n);
  for (std::uint64_t i = 0; i < n; ++i) p[i] = static_cast<double>(words[i]) * 0x1.0p-64;
  return p;
}

std::size_t sample_cumulative(const std::vector<double>& cumulative, double u) {
  if (cumulative.empty()) {
    throw std::invalid_argument("sample_cumulative: empty table");
  }
  const double target = u * cumulative.back();
  // The first entry > target, or the last one. The entries <= target are a
  // prefix of the non-decreasing table, so a short table counts them without
  // a branch: a binary search's branches mispredict on random draws, which
  // cost an L-PNDCA batch of one trial more than the trial's own draws, and
  // the CA family's chunk and subset tables hold a handful of entries.
  const std::size_t last = cumulative.size() - 1;
  std::size_t lo = 0;
  if (cumulative.size() < kShortCumulative) {
    for (std::size_t i = 0; i < last; ++i) lo += cumulative[i] <= target ? 1 : 0;
  } else {
    std::size_t hi = last;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative[mid] > target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
  }
  // When target reaches cumulative.back() (u == 1.0 from a caller, or
  // u * total rounding up for subnormal totals), no entry compares greater
  // and the search falls through to the last index regardless of its
  // weight. Walk back over duplicate cumulative values so a zero-weight
  // band is never selected.
  while (lo > 0 && cumulative[lo] == cumulative[lo - 1]) --lo;
  return lo;
}

}  // namespace casurf
