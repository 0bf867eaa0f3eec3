// Cross-module integration tests: every algorithm family simulating the
// same physics must agree where the theory says it must, and differ where
// the paper says it will.

#include <gtest/gtest.h>

#include <memory>

#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "dmc/rsm.hpp"
#include "models/zgb.hpp"
#include "stats/coverage.hpp"
#include "stats/timeseries.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

class EquilibriumSweep : public ::testing::TestWithParam<Algorithm> {};

TEST_P(EquilibriumSweep, AllAlgorithmsReachLangmuirEquilibrium) {
  // Independent sites: Langmuir coverage k_a / (k_a + k_d) is exact, and
  // every algorithm in the library — exact or approximate — must reproduce
  // it (site-selection correlations cannot matter without coupling).
  // TPNDCA is excluded: batching one type across a whole chunk makes the
  // instantaneous coverage swing for uncoupled single-site models by
  // design (its habitat is pair-reaction models like ZGB).
  const double ka = 1.0, kd = 0.5;
  const ReactionModel m = ads_des_model(ka, kd);
  SimulationOptions opt;
  opt.algorithm = GetParam();
  opt.seed = 17;
  opt.threads = 2;
  auto sim = make_simulator(m, Configuration(Lattice(24, 24), 2, 0), opt);
  sim->advance_to(30.0);
  double avg = 0;
  int n = 0;
  while (sim->time() < 90.0) {
    sim->advance_to(sim->time() + 0.5);
    avg += sim->configuration().coverage(1);
    ++n;
  }
  EXPECT_NEAR(avg / n, ka / (ka + kd), 0.03) << algorithm_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, EquilibriumSweep,
                         ::testing::Values(Algorithm::kRsm, Algorithm::kVssm,
                                           Algorithm::kFrm, Algorithm::kNdca,
                                           Algorithm::kPndca, Algorithm::kLPndca,
                                           Algorithm::kParallelPndca));

TEST(Integration, ZgbReactiveWindowAcrossAlgorithms) {
  // At y = 0.45 the ZGB surface is reactive (not poisoned); RSM and the
  // partitioned CA must agree on the steady O coverage within a few
  // percent (abstract: "experimental data for the simulation of Ziff
  // model").
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(40, 40);
  const auto steady_o = [&](Algorithm a, std::uint64_t seed) {
    SimulationOptions opt;
    opt.algorithm = a;
    opt.seed = seed;
    auto sim = make_simulator(zgb.model, Configuration(lat, 3, zgb.vacant), opt);
    sim->advance_to(15.0);
    double avg = 0;
    int n = 0;
    while (sim->time() < 30.0) {
      sim->advance_to(sim->time() + 0.5);
      avg += sim->configuration().coverage(zgb.o);
      ++n;
    }
    return avg / n;
  };
  const double rsm = steady_o(Algorithm::kRsm, 1);
  const double pndca = steady_o(Algorithm::kPndca, 2);
  const double vssm = steady_o(Algorithm::kVssm, 3);
  EXPECT_NEAR(pndca, rsm, 0.07);
  EXPECT_NEAR(vssm, rsm, 0.07);
  EXPECT_GT(rsm, 0.2);  // reactive: substantial O coverage
  EXPECT_LT(rsm, 0.98);
}

TEST(Integration, ZgbCoPoisonsAtHighY) {
  // Above y2 ~ 0.53 the lattice poisons with CO under any correct
  // algorithm.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.70, 20.0));
  for (const Algorithm a : {Algorithm::kRsm, Algorithm::kPndca}) {
    SimulationOptions opt;
    opt.algorithm = a;
    opt.seed = 5;
    auto sim = make_simulator(zgb.model, Configuration(Lattice(24, 24), 3, zgb.vacant), opt);
    sim->advance_to(80.0);
    EXPECT_GT(sim->configuration().coverage(zgb.co), 0.95) << algorithm_name(a);
  }
}

TEST(Integration, ZgbOxygenRichAtLowY) {
  // Below y1 ~ 0.39 oxygen dominates the surface (with finite reaction
  // rate the O-poisoned state is approached asymptotically).
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.20, 20.0));
  SimulationOptions opt;
  opt.seed = 6;
  auto sim = make_simulator(zgb.model, Configuration(Lattice(24, 24), 3, zgb.vacant), opt);
  sim->advance_to(80.0);
  EXPECT_GT(sim->configuration().coverage(zgb.o), 0.8);
}

TEST(Integration, LPndcaLimitParametersReproduceRsm) {
  // Paper Fig 8: (m = 1, L = N) and (m = N, L = 1) give the same kinetics
  // as RSM. Compare full ZGB transient trajectories, ensemble-averaged.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const Lattice lat(32, 32);

  // `make(seed)` builds one run's simulator.
  const auto mean_of = [&](const auto& make) {
    std::vector<TimeSeries> runs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::unique_ptr<Simulator> sim = make(seed);
      CoverageRecorder rec({zgb.o});
      run_sampled(*sim, 10.0, 0.5, rec);
      runs.push_back(rec.series(zgb.o));
    }
    return ensemble_mean(runs, 100);
  };
  const auto rsm = [&](std::uint64_t seed) {
    return std::make_unique<RsmSimulator>(zgb.model, Configuration(lat, 3, zgb.vacant),
                                          seed);
  };
  const auto lpndca = [&](Partition p, std::uint32_t l) {
    return [&zgb, &lat, p = std::move(p), l](std::uint64_t seed) {
      return std::make_unique<LPndcaSimulator>(
          zgb.model, Configuration(lat, 3, zgb.vacant), p, seed, l);
    };
  };

  const TimeSeries exact = mean_of(rsm);
  EXPECT_LT(mean_abs_difference(exact, mean_of(lpndca(Partition::single_chunk(lat),
                                                      lat.size()))),
            0.035);
  EXPECT_LT(mean_abs_difference(exact, mean_of(lpndca(Partition::singletons(lat), 1))),
            0.035);
}

TEST(Integration, ObserverSamplesOnGridForEveryAlgorithm) {
  auto zgb = models::make_zgb();
  for (const Algorithm a : {Algorithm::kRsm, Algorithm::kVssm, Algorithm::kNdca,
                            Algorithm::kPndca}) {
    SimulationOptions opt;
    opt.algorithm = a;
    auto sim = make_simulator(zgb.model, Configuration(Lattice(10, 10), 3, zgb.vacant), opt);
    CoverageRecorder rec;
    run_sampled(*sim, 3.0, 0.5, rec);
    // Trial-based methods overshoot each grid point by up to one MC step,
    // so the sample count has one point of slack.
    EXPECT_GE(rec.series(zgb.vacant).size(), 5u) << algorithm_name(a);
  }
}

}  // namespace
}  // namespace casurf
