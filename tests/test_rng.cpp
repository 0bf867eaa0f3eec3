#include <gtest/gtest.h>

#include <algorithm>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "rng/counter_rng.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro.hpp"
#include "stats/ks.hpp"

namespace casurf {
namespace {

TEST(SplitMix64, ReproducibleSequence) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Mix64, Bijectiveish) {
  // Distinct small inputs must give distinct outputs (mix64 is a bijection).
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 4096; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 4096u);
}

TEST(Xoshiro256, Reproducible) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, UniformMeanAndVariance) {
  Xoshiro256 rng(99);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double u = uniform01(rng);
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Xoshiro256, Uniform01PassesKs) {
  Xoshiro256 rng(1234);
  std::vector<double> samples(5000);
  for (double& s : samples) s = uniform01(rng);
  const auto r = stats::ks_uniform01(samples);
  EXPECT_FALSE(r.reject(0.001)) << "D=" << r.statistic << " p=" << r.p_value;
}

TEST(Xoshiro256, LongJumpDecorrelates) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.long_jump();
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(UniformBelow, InRangeAndCoversAll) {
  Xoshiro256 rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = uniform_below(rng, 10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Exponential, MeanMatchesRate) {
  Xoshiro256 rng(17);
  const double rate = 4.0;
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += exponential(rng, rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Exponential, PassesKsAgainstTheory) {
  Xoshiro256 rng(18);
  std::vector<double> samples(4000);
  for (double& s : samples) s = exponential(rng, 2.5);
  const auto r = stats::ks_exponential(samples, 2.5);
  EXPECT_FALSE(r.reject(0.001)) << "D=" << r.statistic;
}

TEST(Exponential, ZeroUniformGuard) {
  EXPECT_TRUE(std::isfinite(exponential_from_u(0.0, 1.0)));
  EXPECT_GT(exponential_from_u(0.0, 1.0), 0.0);
}

TEST(Gamma, ShapeOneIsTheExponentialDrawBitForBit) {
  Xoshiro256 a(19), b(19);
  for (int i = 0; i < 1000; ++i) {
    const double g = gamma(a, 1.0, 2.5);
    const double e = exponential(b, 2.5);
    ASSERT_EQ(g, e) << "draw " << i;
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a(), b());  // same generator state
}

/// The shapes the time law is pinned at, from small up to the chunk size
/// of a five-chunk 500x500 partition. Each shape gets its own seed: with a
/// shared one, Marsaglia-Tsang turns the same normals into near-identical
/// transforms at every large shape.
constexpr double kGammaShapes[] = {2, 7, 100, 5000, 50000};

/// Probability-integral transform of Gamma(n, rate) samples:
/// P(n, rate x) = 1 - Q(n, rate x) = 1 - chi_square_p(2 rate x, 2n).
std::vector<double> gamma_pit(const std::vector<double>& samples, double n, double rate) {
  std::vector<double> u;
  u.reserve(samples.size());
  const auto dof = static_cast<std::size_t>(2 * n);
  for (const double x : samples) u.push_back(1.0 - stats::chi_square_p(2 * rate * x, dof));
  return u;
}

TEST(Gamma, MeanAndVarianceMatchTheLaw) {
  const double rate = 3.0;
  const int m = 20000;
  std::uint64_t seed = 20;
  for (const double n : kGammaShapes) {
    Xoshiro256 rng(++seed);
    double sum = 0, sum2 = 0;
    for (int i = 0; i < m; ++i) {
      const double x = gamma(rng, n, rate);
      sum += x;
      sum2 += x * x;
    }
    const double mean = sum / m;
    const double var = (sum2 - sum * mean) / (m - 1);
    // SE of the mean sqrt(n)/rate/sqrt(m); of the sample variance
    // sigma^2 sqrt((2 + 6/n)/m), from the Gamma law's excess kurtosis 6/n.
    const double sigma2 = n / (rate * rate);
    EXPECT_NEAR(mean, n / rate, 5 * std::sqrt(sigma2 / m)) << "shape " << n;
    EXPECT_NEAR(var, sigma2, 5 * sigma2 * std::sqrt((2 + 6 / n) / m)) << "shape " << n;
  }
}

TEST(Gamma, PassesKsAgainstTheGammaCdf) {
  const double rate = 3.0;
  std::uint64_t seed = 30;
  for (const double n : kGammaShapes) {
    Xoshiro256 rng(++seed);
    std::vector<double> samples(4000);
    for (double& x : samples) x = gamma(rng, n, rate);
    const auto r = stats::ks_uniform01(gamma_pit(samples, n, rate));
    EXPECT_FALSE(r.reject(0.001)) << "shape " << n << " D=" << r.statistic
                                  << " p=" << r.p_value;
  }
}

TEST(Gamma, SumsOfExponentialsPassTheSameCdf) {
  // The KS route above, run on the law's definition: if the transform
  // were wrong, these sums would fail it too.
  const double rate = 3.0;
  std::uint64_t seed = 40;
  for (const int n : {1, 2, 7, 100}) {
    Xoshiro256 rng(++seed);
    std::vector<double> samples(4000);
    for (double& x : samples) {
      x = 0;
      for (int i = 0; i < n; ++i) x += exponential(rng, rate);
    }
    const auto r = stats::ks_uniform01(gamma_pit(samples, n, rate));
    EXPECT_FALSE(r.reject(0.001)) << "n " << n << " D=" << r.statistic << " p=" << r.p_value;
  }
}

TEST(CounterRng, StreamIsPureFunctionOfSeedAndKey) {
  CounterRng a(11, 22), b(11, 22);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(CounterRng, DifferentKeysDecorrelated) {
  CounterRng a(11, 1), b(11, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRng, DifferentSeedsDecorrelated) {
  CounterRng a(1, 7), b(2, 7);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRng, NextBelowZeroThrows) {
  // Regression: next_below(0) used to compute bound - 1 == UINT64_MAX,
  // making `r & mask` always pass the rejection test and "uniformly below
  // zero" silently return arbitrary 64-bit values.
  CounterRng rng(5, 6);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
  // The throw must not consume a draw: the stream continues unperturbed.
  CounterRng witness(5, 6);
  EXPECT_NO_THROW({
    CounterRng probe(5, 6);
    try {
      probe.next_below(0);
    } catch (const std::invalid_argument&) {
    }
    EXPECT_EQ(probe.next(), witness.next());
  });
}

TEST(CounterRng, ClosedFormMatchesStatefulStream) {
  // The batched lane fill replays streams through the static closed form;
  // it must agree with the stateful object draw for draw.
  const std::uint64_t seed = 0xfeedULL;
  const std::uint64_t key = CounterRng::key(42, 1337);
  CounterRng rng(seed, key);
  const std::uint64_t base = CounterRng::stream_base(seed, key);
  for (std::uint64_t n = 1; n <= 16; ++n) {
    EXPECT_EQ(rng.next(), CounterRng::nth(base, n)) << n;
  }
  CounterRng drng(seed, key);
  for (std::uint64_t n = 1; n <= 16; ++n) {
    EXPECT_EQ(drng.next_double(), CounterRng::to_unit(CounterRng::nth(base, n)));
  }
}

TEST(CounterRng, DoubleInUnitInterval) {
  CounterRng rng(3, 4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(CounterRng, UniformityAcrossKeys) {
  // First draw of many streams must itself be uniform — this is exactly the
  // per-site usage pattern of the PNDCA engine.
  std::vector<double> samples;
  samples.reserve(4000);
  for (std::uint64_t key = 0; key < 4000; ++key) {
    CounterRng rng(12345, CounterRng::key(7, key));
    samples.push_back(rng.next_double());
  }
  const auto r = stats::ks_uniform01(samples);
  EXPECT_FALSE(r.reject(0.001)) << "D=" << r.statistic;
}

TEST(CounterRng, KeySaltSeparatesStreams) {
  CounterRng a(9, CounterRng::key(1, 2, 0));
  CounterRng b(9, CounterRng::key(1, 2, 1));
  EXPECT_NE(a.next(), b.next());
}

TEST(CounterRng, KeySaltHighBitSeparatesStreams) {
  // Regression: the key used to fold in `salt << 1`, which drops bit 63 —
  // salts s and s | 2^63 produced the same stream.
  CounterRng a(9, CounterRng::key(1, 2, 5));
  CounterRng b(9, CounterRng::key(1, 2, 5 | (1ULL << 63)));
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRng, DefaultSaltKeysUnchanged) {
  // mix64(0) == 0, so salt-0 keys — the library-wide default — kept their
  // pre-fix values and golden trajectories are unaffected.
  EXPECT_EQ(mix64(0), 0u);
  EXPECT_EQ(CounterRng::key(3, 17, 0), CounterRng::key(3, 17));
}

TEST(AliasTable, SingleEntry) {
  const AliasTable t({3.0});
  Xoshiro256 rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTable, MatchesWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  const AliasTable t(weights);
  Xoshiro256 rng(2);
  std::vector<int> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[t.sample(rng)];
  for (std::size_t i = 0; i < 4; ++i) {
    const double expected = weights[i] / 10.0;
    EXPECT_NEAR(counts[i] / static_cast<double>(n), expected, 0.005) << "i=" << i;
  }
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  const AliasTable t({1.0, 0.0, 1.0});
  Xoshiro256 rng(4);
  for (int i = 0; i < 20000; ++i) EXPECT_NE(t.sample(rng), 1u);
}

TEST(AliasTable, InvalidInputsThrow) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({-1.0, 2.0}), std::invalid_argument);
}

TEST(SampleCumulative, PicksCorrectBand) {
  const std::vector<double> cum = {1.0, 3.0, 6.0};
  EXPECT_EQ(sample_cumulative(cum, 0.0), 0u);
  EXPECT_EQ(sample_cumulative(cum, 0.166), 0u);
  EXPECT_EQ(sample_cumulative(cum, 0.17), 1u);
  EXPECT_EQ(sample_cumulative(cum, 0.49), 1u);
  EXPECT_EQ(sample_cumulative(cum, 0.51), 2u);
  EXPECT_EQ(sample_cumulative(cum, 0.999), 2u);
}

TEST(SampleCumulative, CountAndBisectionAgreeWithTheFirstGreaterEntry) {
  // Tables on both sides of kShortCumulative, with zero-weight bands, held
  // to a written-out reference: the first entry > u * total among all but
  // the last (else the last), walked back over equal neighbours.
  Xoshiro256 rng(23);
  for (std::size_t n = 1; n <= 2 * kShortCumulative + 3; ++n) {
    std::vector<double> cum;
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += uniform01(rng) < 0.3 ? 0.0 : 0.5 + uniform01(rng);  // 30% zero-weight
      cum.push_back(acc);
    }
    if (cum.back() == 0) cum.back() = 1.0;
    std::vector<double> us = {0.0, 1.0, std::nextafter(1.0, 0.0)};
    for (const double c : cum) us.push_back(c / cum.back());
    for (int k = 0; k < 200; ++k) us.push_back(uniform01(rng));
    for (const double u : us) {
      const double target = u * cum.back();
      std::size_t want = static_cast<std::size_t>(
          std::upper_bound(cum.begin(), cum.end() - 1, target) - cum.begin());
      while (want > 0 && cum[want] == cum[want - 1]) --want;
      ASSERT_EQ(sample_cumulative(cum, u), want) << "n " << n << " u " << u;
    }
  }
}

TEST(SampleCumulative, ZeroWidthBandsNeverSelected) {
  // Zero-weight entries duplicate their predecessor's cumulative value.
  // When the target reaches the top of the table (u == 1.0, or rounding on
  // subnormal totals) the search falls through to the last entry regardless
  // of its width; the walk-back must land on the last nonzero band.
  const std::vector<double> trailing = {4.0, 4.0};
  EXPECT_EQ(sample_cumulative(trailing, 1.0), 0u);
  EXPECT_EQ(sample_cumulative(trailing, std::nextafter(1.0, 0.0)), 0u);

  const std::vector<double> cum = {1.0, 3.0, 3.0, 3.0};
  EXPECT_EQ(sample_cumulative(cum, 1.0), 1u);
  EXPECT_EQ(sample_cumulative(cum, std::nextafter(1.0, 0.0)), 1u);
  for (int i = 0; i <= 32; ++i) {
    const std::size_t band = sample_cumulative(cum, i / 32.0);
    EXPECT_LE(band, 1u) << "u = " << i / 32.0;
  }
}

TEST(SampleCumulative, ZeroWeightBandsUnselectable) {
  // Interior zero-weight bands (weights 1, 0, 2, 0, 1) are never the first
  // entry above the target.
  const std::vector<double> interior = {1.0, 1.0, 3.0, 3.0, 4.0};
  Xoshiro256 rng(2);
  for (int i = 0; i < 50000; ++i) {
    const std::size_t band = sample_cumulative(interior, uniform01(rng));
    ASSERT_NE(band, 1u);
    ASSERT_NE(band, 3u);
  }
}

TEST(SampleCumulative, MatchesWeights) {
  const std::vector<double> cum = {1.0, 3.0, 6.0, 10.0};  // weights 1, 2, 3, 4
  Xoshiro256 rng(1);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sample_cumulative(cum, uniform01(rng))];
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), (i + 1) / 10.0, 0.005) << i;
  }
}

TEST(SampleCumulative, SingleBand) {
  const std::vector<double> cum = {0.5};
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_cumulative(cum, uniform01(rng)), 0u);
  EXPECT_EQ(sample_cumulative(cum, std::nextafter(1.0, 0.0)), 0u);
  EXPECT_EQ(sample_cumulative(cum, 1.0), 0u);
}

TEST(SampleCumulative, AccumulatedRoundingAdversarial) {
  // Hundreds of irrationally spaced weights summed left to right, as every
  // caller builds its table, then a long zero tail: with u just below 1
  // the target rounds onto the top of the table, and the bisection must
  // still walk back to the last positive band.
  std::vector<double> cum;
  double acc = 0;
  for (int i = 0; i < 300; ++i) {
    cum.push_back(acc += 0.1 * (1.0 + std::sin(static_cast<double>(i))));
  }
  cum.insert(cum.end(), 200, acc);  // zero tail
  const auto positive = [&](std::size_t b) { return cum[b] > (b == 0 ? 0.0 : cum[b - 1]); };
  for (const double u :
       {std::nextafter(1.0, 0.0), 1.0 - 1e-16, 1.0 - 1e-12, 0.9999999, 1.0}) {
    const std::size_t band = sample_cumulative(cum, u);
    EXPECT_LE(band, 299u) << "u=" << u << " landed in the zero tail";
    EXPECT_TRUE(positive(band)) << "u=" << u;
  }
  Xoshiro256 rng(11);
  for (int i = 0; i < 200000; ++i) {
    const std::size_t band = sample_cumulative(cum, uniform01(rng));
    ASSERT_TRUE(positive(band)) << "draw " << i << " band " << band;
  }
}

TEST(SampleCumulative, TinyTotalsStillExcludeZeroBands) {
  // Subnormal totals maximize the relative rounding of u * total: weights
  // d, 0, d, 0, 0 for the least subnormal d.
  const double d = std::numeric_limits<double>::denorm_min();
  const std::vector<double> cum = {d, d, 2 * d, 2 * d, 2 * d};
  for (const double u : {0.0, 0.25, 0.5, std::nextafter(1.0, 0.0), 1.0}) {
    const std::size_t band = sample_cumulative(cum, u);
    EXPECT_TRUE(band == 0u || band == 2u) << "u=" << u << " chose " << band;
  }
}

TEST(SampleCumulative, EmptyThrows) {
  EXPECT_THROW((void)sample_cumulative({}, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace casurf
