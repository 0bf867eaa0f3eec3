#include "models/ising.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ca/synchronous_ca.hpp"
#include "dmc/rsm.hpp"
#include "dmc/vssm.hpp"

namespace casurf::models {
namespace {

TEST(IsingModel, ThirtyTwoReactionTypes) {
  const IsingModel ising = make_ising(0.5);
  EXPECT_EQ(ising.model.num_reactions(), 32u);
  EXPECT_NO_THROW(ising.model.validate());
}

TEST(IsingModel, GlauberRatesMatchFormula) {
  const double beta = 0.7;
  const IsingModel ising = make_ising(beta);
  // flip_up_0: no aligned neighbors, dE = -8J; flip_up_15: all aligned,
  // dE = +8J.
  const double w0 = 1.0 / (1.0 + std::exp(beta * -8.0));
  const double w4 = 1.0 / (1.0 + std::exp(beta * 8.0));
  EXPECT_NEAR(ising.model.reaction(0).rate(), w0, 1e-12);
  EXPECT_NEAR(ising.model.reaction(15).rate(), w4, 1e-12);
}

TEST(IsingModel, DetailedBalanceOfRates) {
  // w(dE) / w(-dE) = exp(-beta dE) for every aligned count h (the flip
  // with h aligned reverses to a flip with 4 - h aligned).
  const double beta = 0.45;
  const IsingModel ising = make_ising(beta);
  for (int h = 0; h <= 4; ++h) {
    const double de = 2.0 * (2.0 * h - 4.0);
    const double w_fwd = 1.0 / (1.0 + std::exp(beta * de));
    const double w_bwd = 1.0 / (1.0 + std::exp(-beta * de));
    EXPECT_NEAR(w_fwd / w_bwd, std::exp(-beta * de), 1e-12) << "h=" << h;
  }
}

TEST(IsingModel, ExactlyOneArrangementEnabledPerSite) {
  // The 16 arrangements per spin are mutually exclusive and exhaustive:
  // at any site exactly one of the 32 types is enabled.
  const IsingModel ising = make_ising(0.5);
  Configuration cfg(Lattice(6, 6), 2, ising.down);
  // Scatter some up spins.
  for (SiteIndex s = 0; s < 36; s += 5) cfg.set(s, ising.up);
  for (SiteIndex s = 0; s < cfg.size(); ++s) {
    int enabled = 0;
    for (ReactionIndex i = 0; i < 32; ++i) {
      if (ising.model.reaction(i).enabled(cfg, s)) ++enabled;
    }
    EXPECT_EQ(enabled, 1) << "site " << s;
  }
}

TEST(IsingModel, MagnetizationHelpers) {
  const IsingModel ising = make_ising(0.5);
  Configuration all_up(Lattice(4, 4), 2, ising.up);
  EXPECT_DOUBLE_EQ(ising.magnetization(all_up), 1.0);
  EXPECT_DOUBLE_EQ(ising.energy_per_site(all_up), -2.0);  // ground state
  EXPECT_DOUBLE_EQ(ising.staggered_magnetization(all_up), 0.0);

  Configuration checker(Lattice(4, 4), 2, ising.down);
  for (SiteIndex s = 0; s < 16; ++s) {
    const Vec2 p = checker.lattice().coord(s);
    if ((p.x + p.y) % 2 == 0) checker.set(s, ising.up);
  }
  EXPECT_DOUBLE_EQ(ising.magnetization(checker), 0.0);
  EXPECT_DOUBLE_EQ(ising.energy_per_site(checker), 2.0);  // anti-ground
  EXPECT_DOUBLE_EQ(ising.staggered_magnetization(checker), 1.0);
}

TEST(IsingModel, LowTemperatureStaysOrdered) {
  const IsingModel ising = make_ising(0.8);  // well below Tc
  RsmSimulator sim(ising.model, Configuration(Lattice(16, 16), 2, ising.up), 1);
  for (int i = 0; i < 200; ++i) sim.mc_step();
  EXPECT_GT(ising.magnetization(sim.configuration()), 0.9);
}

TEST(IsingModel, HighTemperatureDisorders) {
  const IsingModel ising = make_ising(0.1);  // far above Tc
  RsmSimulator sim(ising.model, Configuration(Lattice(16, 16), 2, ising.up), 2);
  for (int i = 0; i < 400; ++i) sim.mc_step();
  EXPECT_LT(std::abs(ising.magnetization(sim.configuration())), 0.35);
  EXPECT_GT(ising.energy_per_site(sim.configuration()), -1.0);
}

TEST(IsingModel, EnergyDecreasesWithCoupling) {
  double last_energy = 10;
  for (const double beta : {0.1, 0.3, 0.6}) {
    const IsingModel ising = make_ising(beta);
    VssmSimulator sim(ising.model, Configuration(Lattice(12, 12), 2, ising.up), 3);
    for (int i = 0; i < 40000; ++i) sim.mc_step();
    const double e = ising.energy_per_site(sim.configuration());
    EXPECT_LT(e, last_energy) << "beta=" << beta;
    last_energy = e;
  }
}

TEST(IsingModel, RsmMeltsCheckerboardFast) {
  // In a perfect checkerboard every flip releases 8J, so sequential
  // dynamics destroys the staggered order almost immediately.
  const IsingModel ising = make_ising(1.0);
  Configuration checker(Lattice(16, 16), 2, ising.down);
  for (SiteIndex s = 0; s < checker.size(); ++s) {
    const Vec2 p = checker.lattice().coord(s);
    if ((p.x + p.y) % 2 == 0) checker.set(s, ising.up);
  }
  RsmSimulator sim(ising.model, std::move(checker), 4);
  for (int i = 0; i < 60; ++i) sim.mc_step();
  EXPECT_LT(std::abs(ising.staggered_magnetization(sim.configuration())), 0.4);
}

TEST(SynchronousIsing, CheckerboardBlinksForever) {
  // The Vichniac degeneracy (paper section 4, ref [19]): under fully
  // synchronous heat-bath updates the checkerboard is a stable period-2
  // attractor — the staggered magnetization flips sign every step and
  // never decays.
  const IsingModel ising = make_ising(1.0);
  Configuration checker(Lattice(16, 16), 2, ising.down);
  for (SiteIndex s = 0; s < checker.size(); ++s) {
    const Vec2 p = checker.lattice().coord(s);
    if ((p.x + p.y) % 2 == 0) checker.set(s, ising.up);
  }
  SynchronousCA ca(std::move(checker), heat_bath_rule(ising, 5));
  double prev = ising.staggered_magnetization(ca.configuration());
  for (int i = 0; i < 50; ++i) {
    ca.step();
    const double cur = ising.staggered_magnetization(ca.configuration());
    EXPECT_GT(std::abs(cur), 0.9) << "step " << i;
    EXPECT_LT(prev * cur, 0.0) << "step " << i;  // sign alternates
    prev = cur;
  }
}

TEST(SynchronousIsing, DeterministicForSeed) {
  const IsingModel ising = make_ising(0.5);
  SynchronousCA a(Configuration(Lattice(8, 8), 2, ising.up), heat_bath_rule(ising, 7));
  SynchronousCA b(Configuration(Lattice(8, 8), 2, ising.up), heat_bath_rule(ising, 7));
  a.run(20);
  b.run(20);
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(IsingModel, RejectsBadParameters) {
  EXPECT_THROW((void)make_ising(-0.1), std::invalid_argument);
  EXPECT_THROW((void)make_ising(0.5, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace casurf::models
