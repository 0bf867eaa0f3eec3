#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace casurf {

/// Uniform double in [0, 1) from any 64-bit URBG.
template <class Rng>
[[nodiscard]] double uniform01(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, bound) via Lemire reduction.
template <class Rng>
[[nodiscard]] std::uint64_t uniform_below(Rng& rng, std::uint64_t bound) {
  assert(bound > 0);
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint64_t>(
      (static_cast<u128>(rng()) * static_cast<u128>(bound)) >> 64);
}

/// Sample from Exp(rate): the waiting time of a Poisson process, i.e. the
/// paper's "draw from 1 - exp(-N K t)" with rate = N K. Guards against
/// log(0) by nudging u away from 0.
[[nodiscard]] inline double exponential_from_u(double u, double rate) {
  assert(rate > 0);
  if (u <= 0.0) u = std::numeric_limits<double>::min();
  return -std::log(u) / rate;
}

template <class Rng>
[[nodiscard]] double exponential(Rng& rng, double rate) {
  return exponential_from_u(uniform01(rng), rate);
}

/// Standard normal by Marsaglia's polar method; the pair's second normal is
/// dropped so the draw keeps no state. Uses only log and sqrt, so the
/// stream is the same under every standard library.
template <class Rng>
[[nodiscard]] double standard_normal(Rng& rng) {
  for (;;) {
    const double x = 2.0 * uniform01(rng) - 1.0;
    const double y = 2.0 * uniform01(rng) - 1.0;
    const double s = x * x + y * y;
    if (s < 1.0 && s > 0.0) return x * std::sqrt(-2.0 * std::log(s) / s);
  }
}

/// Sample from Gamma(shape, rate), the law of the sum of `shape` iid
/// Exp(rate) draws: the waiting time of `shape` Poisson events. Shape 1 is
/// exponential(rng, rate) itself, bit for bit; larger shapes use
/// Marsaglia-Tsang (2000), exact for shape >= 1, with a polar-method
/// normal. Not std::gamma_distribution: its algorithm, and so the stream,
/// differs between standard libraries.
template <class Rng>
[[nodiscard]] double gamma(Rng& rng, double shape, double rate) {
  assert(shape >= 1 && rate > 0);
  if (shape == 1.0) return exponential(rng, rate);
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0;
    double v = 0;
    do {
      x = standard_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform01(rng);
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v / rate;
    }
  }
}

/// Walker/Vose alias table: O(1) sampling from a fixed discrete
/// distribution. Used to pick a reaction type with probability k_i / K on
/// every trial of RSM/NDCA/PNDCA — the single hottest distribution in the
/// library, so constant-time sampling is worth the setup cost.
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(const std::vector<double>& weights);

  [[nodiscard]] std::size_t size() const { return prob_.size(); }
  [[nodiscard]] bool empty() const { return prob_.empty(); }

  /// Sample an index given two independent uniforms in [0,1).
  [[nodiscard]] std::size_t sample(double u_slot, double u_flip) const {
    const auto slot = static_cast<std::size_t>(u_slot * static_cast<double>(prob_.size()));
    const std::size_t i = slot < prob_.size() ? slot : prob_.size() - 1;
    return u_flip < prob_[i] ? i : alias_[i];
  }

  template <class Rng>
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    const double a = uniform01(rng);
    const double b = uniform01(rng);
    return sample(a, b);
  }

  /// Sample an index from one uniform 64-bit word: the slot is the
  /// multiply-shift (hi32(r) * size) >> 32 of its high half, kept iff its
  /// low half is below the slot's threshold, else replaced by its alias.
  /// The flip resolves probabilities to 2^-32.
  [[nodiscard]] std::size_t sample_bits(std::uint64_t r) const {
    const auto slot = static_cast<std::size_t>(((r >> 32) * thr_.size()) >> 32);
    return static_cast<std::uint32_t>(r) < thr_[slot] ? slot : alias_[slot];
  }

  /// sample_bits()'s probability of each index, exactly: slot j takes the
  /// high halves h with (h * size) >> 32 == j and keeps j for the low
  /// halves below its threshold. A threshold is less than 2^-32 below its
  /// column's probability, so an index that only its own column holds (any
  /// share p < 1 / size()) is drawn with a relative error below about
  /// 2^-32 / (size() * p), and not at all when p < 2^-32 / size().
  [[nodiscard]] std::vector<double> bits_probabilities() const;

  /// Raw table access for samplers that evaluate many draws at once (the
  /// trial kernels permute or gather the thresholds and the alias column;
  /// their lane arithmetic reproduces sample_bits() exactly).
  [[nodiscard]] const std::uint32_t* threshold_data() const { return thr_.data(); }
  [[nodiscard]] const std::uint32_t* alias_data() const { return alias_.data(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> thr_;  // floor(prob_ * 2^32), 2^32 - 1 at prob_ 1
  std::vector<std::uint32_t> alias_;
};

/// Tables shorter than this many entries are searched by a branch-free
/// count, longer ones by bisection; both give the same index.
inline constexpr std::size_t kShortCumulative = 16;

/// Sampling from a non-decreasing table of cumulative weights: the index of
/// the first entry greater than u * total, never a zero-weight band.
/// Allocation-free and exact; O(n) below kShortCumulative entries, O(log n)
/// above. The library's one draw over weights that change between draws:
/// VSSM's type draw (the direct method's bands k_i |E_i|), the rate-weighted
/// chunk draws of PNDCA, L-PNDCA and T-PNDCA, L-PNDCA's size-weighted chunk
/// draw, and T-PNDCA's subset and type draws.
[[nodiscard]] std::size_t sample_cumulative(const std::vector<double>& cumulative,
                                            double u);

}  // namespace casurf
