#include "me/master_equation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "dmc/frm.hpp"
#include "dmc/vssm.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

TEST(MasterEquation, StateSpaceSize) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const MasterEquation me(m, Lattice(3, 1));
  EXPECT_EQ(me.num_states(), 8u);  // 2^3
  const auto zgb = models::make_zgb();
  const MasterEquation me_zgb(zgb.model, Lattice(2, 2));
  EXPECT_EQ(me_zgb.num_states(), 81u);  // 3^4
}

TEST(MasterEquation, RefusesHugeStateSpaces) {
  const auto zgb = models::make_zgb();
  EXPECT_THROW(MasterEquation(zgb.model, Lattice(10, 10)), std::invalid_argument);
}

TEST(MasterEquation, StateIndexRoundTrip) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const MasterEquation me(m, Lattice(2, 2));
  for (std::size_t i = 0; i < me.num_states(); ++i) {
    EXPECT_EQ(me.state_index(me.state(i)), i);
  }
}

TEST(MasterEquation, GeneratorConservesProbability) {
  // Column sums of Q vanish: d/dt sum P = 0.
  const auto zgb = models::make_zgb();
  const MasterEquation me(zgb.model, Lattice(2, 1));
  std::vector<double> p(me.num_states(), 1.0 / me.num_states());
  std::vector<double> dp;
  me.apply_generator(p, dp);
  double total = 0;
  for (const double v : dp) total += v;
  EXPECT_NEAR(total, 0.0, 1e-12);
}

TEST(MasterEquation, SingleSiteAnalyticSolution) {
  // One site, A <-> *: P_A(t) = (ka/(ka+kd)) (1 - exp(-(ka+kd) t)).
  const double ka = 2.0, kd = 0.5;
  const ReactionModel m = ads_des_model(ka, kd);
  const MasterEquation me(m, Lattice(1, 1));
  const Configuration empty(Lattice(1, 1), 2, 0);
  for (const double t : {0.1, 0.5, 1.0, 3.0}) {
    const auto p = me.evolve(me.delta(empty), t, 1e-3);
    const double expected = ka / (ka + kd) * (1.0 - std::exp(-(ka + kd) * t));
    EXPECT_NEAR(me.expected_coverage(p, 1), expected, 1e-6) << "t=" << t;
  }
}

TEST(MasterEquation, IndependentSitesFactorize) {
  // For uncoupled sites the N-site coverage equals the 1-site solution.
  const double ka = 1.0, kd = 1.0;
  const ReactionModel m = ads_des_model(ka, kd);
  const MasterEquation one(m, Lattice(1, 1));
  const MasterEquation four(m, Lattice(2, 2));
  const auto p1 = one.evolve(one.delta(Configuration(Lattice(1, 1), 2, 0)), 0.7);
  const auto p4 = four.evolve(four.delta(Configuration(Lattice(2, 2), 2, 0)), 0.7);
  EXPECT_NEAR(one.expected_coverage(p1, 1), four.expected_coverage(p4, 1), 1e-9);
}

TEST(MasterEquation, EvolveKeepsDistributionValid) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 5.0));
  const MasterEquation me(zgb.model, Lattice(2, 2));
  const auto p = me.evolve(me.delta(Configuration(Lattice(2, 2), 3, zgb.vacant)), 2.0);
  double total = 0;
  for (const double v : p) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

/// The headline check: ensembles of both exact event-driven simulators,
/// VSSM and FRM, converge to the exact Master Equation marginal of every
/// species at time t. 3000 replicas of a 4-site system give a standard
/// error of at most ~0.01 per species; the bound is 0.02.
void expect_dmc_ensembles_match_exact(const ReactionModel& model,
                                      const Configuration& initial, double t) {
  const MasterEquation me(model, initial.lattice());
  const auto p = me.evolve(me.delta(initial), t, 1e-3);
  constexpr int kReplicas = 3000;
  const auto ensemble_mean = [&](const auto& make) {
    std::vector<double> mean(model.species().size(), 0.0);
    for (std::uint64_t seed = 100; seed < 100 + kReplicas; ++seed) {
      const auto sim = make(seed);
      sim->advance_to(t);
      for (Species sp = 0; sp < mean.size(); ++sp) {
        mean[sp] += sim->configuration().coverage(sp) / kReplicas;
      }
    }
    return mean;
  };
  const auto vssm = ensemble_mean([&](std::uint64_t seed) {
    return std::make_unique<VssmSimulator>(model, initial, seed);
  });
  const auto frm = ensemble_mean([&](std::uint64_t seed) {
    return std::make_unique<FrmSimulator>(model, initial, seed);
  });
  for (Species sp = 0; sp < vssm.size(); ++sp) {
    const double exact = me.expected_coverage(p, sp);
    EXPECT_NEAR(vssm[sp], exact, 0.02) << "VSSM, species " << model.species().name(sp);
    EXPECT_NEAR(frm[sp], exact, 0.02) << "FRM, species " << model.species().name(sp);
  }
}

TEST(MasterEquation, ZgbEnsembleMatchesExactCoverage) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 5.0));
  const Lattice lat(2, 2);
  expect_dmc_ensembles_match_exact(zgb.model, Configuration(lat, 3, zgb.vacant), 1.5);
}

// Pt(100) on 2x2: 5^4 = 625 states. Its multi-species source masks are
// where the pruned recheck finds some enable flips at a later written site
// than a full recheck would, which reorders FRM's random draws; the exact
// answer gates that order. From the vacant 1x1 phase the surface never
// reconstructs (an empty 1x1 site reverts only next to a hex site), so the
// mixed-phase start below is the one that reaches the front types and
// their `require` masks.
TEST(MasterEquation, Pt100EnsembleMatchesExactCoverage) {
  const auto pt = models::make_pt100();
  const Lattice lat(2, 2);
  expect_dmc_ensembles_match_exact(
      pt.model, Configuration(lat, pt.model.species().size(), pt.sq_vac), 1.0);
}

TEST(MasterEquation, Pt100MixedPhaseEnsembleMatchesExactCoverage) {
  const auto pt = models::make_pt100();
  Configuration initial(Lattice(2, 2), pt.model.species().size(), pt.sq_vac);
  initial.set(Vec2{0, 0}, pt.hex_vac);  // top row hex, bottom row 1x1
  initial.set(Vec2{1, 0}, pt.hex_vac);
  expect_dmc_ensembles_match_exact(pt.model, initial, 1.0);
}

TEST(MasterEquation, TransitionCountMatchesHandCount) {
  // 1-site ads/des: 2 states, one transition each way.
  const ReactionModel m = ads_des_model(1.0, 2.0);
  const MasterEquation me(m, Lattice(1, 1));
  EXPECT_EQ(me.num_states(), 2u);
  EXPECT_EQ(me.num_transitions(), 2u);
}

TEST(MasterEquation, StationaryMatchesLangmuirProductMeasure) {
  // Independent ads/des sites: the stationary distribution is a product of
  // Bernoulli(ka / (ka + kd)) marginals.
  const double ka = 2.0, kd = 1.0;
  const ReactionModel m = ads_des_model(ka, kd);
  const MasterEquation me(m, Lattice(3, 1));
  const auto pi = me.stationary();
  const double theta = ka / (ka + kd);
  EXPECT_NEAR(me.expected_coverage(pi, 1), theta, 1e-6);
  // Spot-check one full state probability: P(A A A) = theta^3.
  Configuration all_a(Lattice(3, 1), 2, 1);
  EXPECT_NEAR(pi[me.state_index(all_a)], theta * theta * theta, 1e-6);
}

TEST(MasterEquation, StationaryIsFixedPointOfGenerator) {
  const auto zgb = models::make_zgb(models::ZgbParams::from_y(0.5, 5.0));
  const MasterEquation me(zgb.model, Lattice(2, 1));
  const auto pi = me.stationary();
  std::vector<double> dpi;
  me.apply_generator(pi, dpi);
  for (const double v : dpi) EXPECT_NEAR(v, 0.0, 1e-8);
}

TEST(MasterEquation, EvolveConvergesToStationary) {
  const double ka = 1.0, kd = 3.0;
  const ReactionModel m = ads_des_model(ka, kd);
  const MasterEquation me(m, Lattice(2, 2));
  const auto pi = me.stationary();
  const auto p_long =
      me.evolve(me.delta(Configuration(Lattice(2, 2), 2, 0)), 20.0, 1e-2);
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_NEAR(p_long[i], pi[i], 1e-6) << "state " << i;
  }
}

TEST(MasterEquation, EvolveValidatesArguments) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const MasterEquation me(m, Lattice(2, 1));
  EXPECT_THROW((void)me.evolve(std::vector<double>(3, 0.0), 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)me.evolve(std::vector<double>(4, 0.25), -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace casurf
