// Regression tests for the grid-sampling exactness of advance_to: the
// exact DMC methods must land on requested times EXACTLY (never executing
// an event that fires past the target), because the state observed at t
// would otherwise include future events — a bias the Master Equation
// comparison caught on small lattices. The CA family's clock is pinned to
// its law here too: N trials per step, each worth an Exp(N K) wait.

#include <gtest/gtest.h>

#include "ca/lpndca.hpp"
#include "ca/pndca.hpp"
#include "core/observer.hpp"
#include "dmc/frm.hpp"
#include "dmc/rsm.hpp"
#include "dmc/vssm.hpp"
#include "me/master_equation.hpp"
#include "models/zgb.hpp"
#include "stats/coverage.hpp"
#include "stats/ensemble.hpp"
#include "stats/ks.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

template <class Sim>
void expect_exact_grid(Sim& sim) {
  for (int i = 1; i <= 20; ++i) {
    const double target = 0.37 * i;
    sim.advance_to(target);
    ASSERT_DOUBLE_EQ(sim.time(), target) << "grid point " << i;
  }
}

TEST(SamplingExactness, RsmLandsOnGridExactly) {
  const ReactionModel m = ads_des_model(1.0, 0.5);
  RsmSimulator sim(m, Configuration(Lattice(6, 6), 2, 0), 1);
  expect_exact_grid(sim);
}

TEST(SamplingExactness, VssmLandsOnGridExactly) {
  const ReactionModel m = ads_des_model(1.0, 0.5);
  VssmSimulator sim(m, Configuration(Lattice(6, 6), 2, 0), 2);
  expect_exact_grid(sim);
}

TEST(SamplingExactness, FrmLandsOnGridExactly) {
  const ReactionModel m = ads_des_model(1.0, 0.5);
  FrmSimulator sim(m, Configuration(Lattice(6, 6), 2, 0), 3);
  expect_exact_grid(sim);
}

TEST(SamplingExactness, FrmKeepsFutureEventsScheduled) {
  // Stopping before the next event must not lose it: the event fires
  // when the clock finally passes it.
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 0.001, {exact({0, 0}, 0, 1)}));  // very slow
  FrmSimulator sim(m, Configuration(Lattice(2, 2), 2, 0), 4);
  sim.advance_to(0.01);  // almost surely before any event
  EXPECT_DOUBLE_EQ(sim.time(), 0.01);
  sim.advance_to(1e5);  // all four sites must eventually fill
  EXPECT_DOUBLE_EQ(sim.configuration().coverage(1), 1.0);
  EXPECT_EQ(sim.counters().executed, 4u);
}

TEST(SamplingExactness, TransientCoverageMatchesAnalyticSolution) {
  // The fix's payoff: the *transient* Langmuir curve sampled on a grid
  // matches theta(t) = theta_inf (1 - exp(-(ka+kd) t)) without the
  // one-event-late bias (visible on a small lattice).
  const double ka = 1.5, kd = 0.5;
  const ReactionModel m = ads_des_model(ka, kd);
  const Configuration initial(Lattice(4, 4), 2, 0);
  for (const double t : {0.2, 0.6, 1.2}) {
    const auto result = run_ensemble(
        [&](std::uint64_t seed) {
          return std::make_unique<VssmSimulator>(m, initial, seed);
        },
        [](const Simulator& sim) { return sim.configuration().coverage(1); },
        4000, t, t, 2, 10);
    const double expected = ka / (ka + kd) * (1.0 - std::exp(-(ka + kd) * t));
    EXPECT_NEAR(result.mean.values().back(), expected, 0.012) << "t=" << t;
  }
}

TEST(SamplingExactness, RunSampledGridIsExactForEventDrivenMethods) {
  auto zgb = models::make_zgb();
  VssmSimulator sim(zgb.model, Configuration(Lattice(8, 8), 3, zgb.vacant), 5);
  CoverageRecorder rec({zgb.o});
  run_sampled(sim, 4.0, 0.5, rec);
  const TimeSeries& ts = rec.series(zgb.o);
  ASSERT_EQ(ts.size(), 9u);  // 0, 0.5, ..., 4.0 with no overshoot drift
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts.time(i), 0.5 * static_cast<double>(i));
  }
}

/// KS test of a CA simulator's per-step time increments against
/// Gamma(N, N K), the law of N iid Exp(N K) trial waits, through the
/// transform P(N, N K dt) = 1 - chi_square_p(2 N K dt, 2N).
stats::KsResult step_time_ks(Simulator& sim, int steps) {
  const double n = static_cast<double>(sim.configuration().size());
  const double rate_nk = n * sim.model().total_rate();
  std::vector<double> u;
  for (int i = 0; i < steps; ++i) {
    const double before = sim.time();
    sim.mc_step();
    const double dt = sim.time() - before;
    u.push_back(1.0 - stats::chi_square_p(2 * rate_nk * dt, 2 * sim.configuration().size()));
  }
  return stats::ks_uniform01(u);
}

TEST(CaTimeLaw, StepIncrementIsGammaNNK) {
  // PNDCA: five chunk sweeps per step, each advancing by its own sites'
  // waits. L-PNDCA with L = 7: 14 batches of 7 and a clipped one of 2.
  const auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  const Configuration initial(lat, 3, zgb.vacant);
  const Partition five = Partition::linear_form(lat, 1, 3, 5);
  PndcaSimulator pndca(zgb.model, initial, {five}, 6);
  LPndcaSimulator lpndca(zgb.model, initial, five, 7, 7);
  for (Simulator* sim : {static_cast<Simulator*>(&pndca), static_cast<Simulator*>(&lpndca)}) {
    const auto r = step_time_ks(*sim, 2000);
    EXPECT_FALSE(r.reject(0.001)) << sim->name() << " D=" << r.statistic << " p=" << r.p_value;
  }
}

}  // namespace
}  // namespace casurf
