#include "parallel/domain_decomp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/observer.hpp"
#include "dmc/rsm.hpp"
#include "models/diffusion.hpp"
#include "models/zgb.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro.hpp"
#include "stats/coverage.hpp"
#include "stats/timeseries.hpp"

namespace casurf {
namespace {

/// The strip-decomposed RSM run serially: per round, the interiors of
/// strips 0..p-1 one after another, then their seams, all on one lattice
/// with count-keeping writes, strip k drawing from Xoshiro256(seed ^
/// mix64(k + 1)). The engine runs the same strips concurrently on a pool
/// and merges species deltas after each join, so both must agree bit for
/// bit. Samples on the engine's grid: t = 0, every sample_dt, and the end.
DomainDecompResult serial_strips(const ReactionModel& model, const Configuration& initial,
                                 const DomainDecompParams& params) {
  const Lattice& lat = initial.lattice();
  const int p = params.ranks;
  const std::int32_t r = model.max_radius_l1();
  const std::int32_t w = lat.width() / p;
  const double k_total = model.total_rate();
  const auto rounds = static_cast<std::uint64_t>(std::ceil(params.t_end * k_total));
  const auto every = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(params.sample_dt * k_total)));

  Configuration cfg = initial;
  std::vector<Xoshiro256> rngs;
  for (int k = 0; k < p; ++k) {
    rngs.emplace_back(params.seed ^ mix64(static_cast<std::uint64_t>(k) + 1));
  }
  DomainDecompResult out;
  out.rounds = rounds;
  out.coverage.assign(model.species().size(), {});
  const auto sample = [&](double t) {
    out.times.push_back(t);
    for (std::size_t sp = 0; sp < out.coverage.size(); ++sp) {
      out.coverage[sp].push_back(cfg.coverage(static_cast<Species>(sp)));
    }
  };
  const auto trials = [&](Xoshiro256& rng, std::int32_t x_begin, std::int32_t cols) {
    for (std::int32_t i = 0; i < cols * lat.height(); ++i) {
      const auto x = x_begin + static_cast<std::int32_t>(uniform_below(rng, cols));
      const auto y = static_cast<std::int32_t>(uniform_below(rng, lat.height()));
      const SiteIndex s = lat.index(lat.wrap({x, y}));
      const ReactionType& reaction = model.reaction(model.sample_type(rng));
      if (reaction.enabled(cfg, s)) reaction.execute(cfg, s);
      ++out.total_trials;
    }
  };

  sample(0.0);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (p == 1) {
      trials(rngs[0], 0, lat.width());
    } else {
      for (int k = 0; k < p; ++k) trials(rngs[k], k * w + r, w - 2 * r);
      for (int k = 0; k < p; ++k) trials(rngs[k], (k + 1) * w - r, 2 * r);
    }
    if ((round + 1) % every == 0 || round + 1 == rounds) {
      sample(static_cast<double>(round + 1) / k_total);
    }
  }
  return out;
}

void expect_matches_serial_strips(const ReactionModel& model, const Configuration& initial,
                                  std::uint64_t seed) {
  for (const int ranks : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << ranks << " strips, seed " << seed);
    DomainDecompParams params;
    params.ranks = ranks;
    params.seed = seed;
    params.t_end = 2.0;
    params.sample_dt = 0.5;
    const auto dd = run_domain_decomp(model, initial, params);
    const auto ref = serial_strips(model, initial, params);
    EXPECT_EQ(dd.times, ref.times);
    EXPECT_EQ(dd.coverage, ref.coverage);
    EXPECT_EQ(dd.total_trials, ref.total_trials);
    EXPECT_EQ(dd.rounds, ref.rounds);
    if (ranks == 1) {
      EXPECT_EQ(dd.halo_messages, 0u);
      EXPECT_EQ(dd.halo_bytes, 0u);
    } else {
      const std::uint64_t per_message = 2u * model.max_radius_l1() *
                                        initial.lattice().height() * sizeof(Species);
      EXPECT_EQ(dd.halo_messages, 2u * ranks * dd.rounds);
      EXPECT_EQ(dd.halo_bytes, dd.halo_messages * per_message);
    }
  }
}

TEST(DomainDecomp, ValidatesParameters) {
  auto zgb = models::make_zgb();
  const Configuration cfg(Lattice(20, 20), 3, zgb.vacant);
  DomainDecompParams params;
  params.ranks = 0;
  EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument);
  params.ranks = 3;  // 20 % 3 != 0
  EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument);
  params.ranks = 5;  // strips of width 4 <= 4r with r = 1
  EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument);

  // Times that would reach a float-to-integer cast out of range.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  params.ranks = 2;
  for (const double t_end : {-1.0, kInf, -kInf, kNan, 1e300}) {
    params.t_end = t_end;
    EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument)
        << "t_end " << t_end;
  }
  params.t_end = 1.0;
  for (const double dt : {0.0, -1.0, kInf, kNan}) {
    params.sample_dt = dt;
    EXPECT_THROW((void)run_domain_decomp(zgb.model, cfg, params), std::invalid_argument)
        << "sample_dt " << dt;
  }
}

TEST(DomainDecomp, SamplesOnTheRequestedGrid) {
  // ZGB at y = 0.45 has K = 21, so dt = 1 is 21 rounds: rows at t = 0 (the
  // initial state), 1, 2 and 3, the last also being the final round.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  Configuration initial(Lattice(40, 40), 3, zgb.vacant);
  for (SiteIndex i = 0; i < initial.size(); i += 5) initial.set(i, zgb.o);
  DomainDecompParams params;
  params.ranks = 2;
  params.seed = 4;
  params.t_end = 3.0;
  params.sample_dt = 1.0;
  const auto dd = run_domain_decomp(zgb.model, initial, params);
  ASSERT_EQ(dd.times.size(), 4u);
  for (std::size_t i = 0; i < dd.times.size(); ++i) {
    EXPECT_NEAR(dd.times[i], static_cast<double>(i), 1e-12) << i;
  }
  for (std::size_t sp = 0; sp < dd.coverage.size(); ++sp) {
    ASSERT_EQ(dd.coverage[sp].size(), 4u);
    EXPECT_EQ(dd.coverage[sp][0], initial.coverage(static_cast<Species>(sp))) << sp;
  }

  // t_end off the grid: the final row closes the series after the last
  // whole sample.
  params.t_end = 2.5;
  const auto off = run_domain_decomp(zgb.model, initial, params);
  ASSERT_EQ(off.times.size(), 4u);
  EXPECT_NEAR(off.times[2], 2.0, 1e-12);
  EXPECT_NEAR(off.times[3], static_cast<double>(off.rounds) / zgb.model.total_rate(), 1e-12);
}

TEST(DomainDecomp, MatchesSerialStripReference) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  Configuration zgb_initial(Lattice(40, 16), 3, zgb.vacant);
  for (SiteIndex i = 0; i < zgb_initial.size(); i += 7) zgb_initial.set(i, zgb.co);
  for (const std::uint64_t seed : {3u, 91u}) {
    expect_matches_serial_strips(zgb.model, zgb_initial, seed);
  }

  const auto dif = models::make_diffusion(1.0);
  Configuration dif_initial(Lattice(48, 12), dif.model.species().size(), dif.vacant);
  for (SiteIndex i = 0; i < dif_initial.size(); i += 3) dif_initial.set(i, dif.particle);
  for (const std::uint64_t seed : {3u, 91u}) {
    expect_matches_serial_strips(dif.model, dif_initial, seed);
  }
}

TEST(DomainDecomp, SingleRankMatchesRsmKinetics) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(24, 24);
  const Configuration initial(lat, 3, zgb.vacant);

  DomainDecompParams params;
  params.ranks = 1;
  params.seed = 3;
  params.t_end = 8.0;
  params.sample_dt = 0.5;
  const auto dd = run_domain_decomp(zgb.model, initial, params);

  RsmSimulator rsm(zgb.model, initial, 17);
  CoverageRecorder rec({zgb.o});
  run_sampled(rsm, 8.0, 0.5, rec);

  const TimeSeries dd_o(dd.times, dd.coverage[zgb.o]);
  EXPECT_LT(mean_abs_difference(dd_o, rec.series(zgb.o)), 0.06);
  EXPECT_EQ(dd.halo_messages, 0u);  // one strip: no seams, no halo
}

TEST(DomainDecomp, TwoAndFourRanksMatchRsmKinetics) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(24, 24);
  const Configuration initial(lat, 3, zgb.vacant);

  RsmSimulator rsm(zgb.model, initial, 21);
  CoverageRecorder rec({zgb.o});
  run_sampled(rsm, 8.0, 0.5, rec);

  for (const int ranks : {2, 4}) {
    DomainDecompParams params;
    params.ranks = ranks;
    params.seed = 11 + ranks;
    params.t_end = 8.0;
    params.sample_dt = 0.5;
    const auto dd = run_domain_decomp(zgb.model, initial, params);
    const TimeSeries dd_o(dd.times, dd.coverage[zgb.o]);
    EXPECT_LT(mean_abs_difference(dd_o, rec.series(zgb.o)), 0.06) << ranks << " ranks";
  }
}

TEST(DomainDecomp, MessageCountMatchesProtocol) {
  // Every round, each strip would send exactly two messages (halo push +
  // seam return) when p > 1.
  auto zgb = models::make_zgb();
  const Lattice lat(20, 10);
  DomainDecompParams params;
  params.ranks = 2;
  params.t_end = 1.0;
  params.sample_dt = 10.0;  // no sample between the initial and the final row
  const auto dd = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  EXPECT_EQ(dd.halo_messages, 2u * 2u * dd.rounds);
  // Each message carries 2 r H = 2 * 1 * 10 species bytes.
  EXPECT_EQ(dd.halo_bytes, dd.halo_messages * 20u);
  EXPECT_EQ(dd.times.size(), 2u);
}

TEST(DomainDecomp, TrialBudgetIsOneMcStepPerRound) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 10);
  DomainDecompParams params;
  params.ranks = 2;
  params.t_end = 2.0;
  const auto dd = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  EXPECT_EQ(dd.total_trials, dd.rounds * lat.size());
}

TEST(DomainDecomp, CoverageRowsSumToOne) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 10.0));
  const Lattice lat(24, 12);
  DomainDecompParams params;
  params.ranks = 4;
  params.t_end = 4.0;
  params.sample_dt = 1.0;
  const auto dd = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  ASSERT_FALSE(dd.times.empty());
  for (std::size_t i = 0; i < dd.times.size(); ++i) {
    double sum = 0;
    for (const auto& row : dd.coverage) sum += row[i];
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DomainDecomp, DeterministicForFixedSeed) {
  auto zgb = models::make_zgb();
  const Lattice lat(20, 10);
  DomainDecompParams params;
  params.ranks = 2;
  params.seed = 5;
  params.t_end = 2.0;
  const auto a = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  const auto b = run_domain_decomp(zgb.model, Configuration(lat, 3, zgb.vacant), params);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.times, b.times);
}

}  // namespace
}  // namespace casurf
