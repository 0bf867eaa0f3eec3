#include "ca/lpndca.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ca/fastpath.hpp"
#include "draw_law.hpp"
#include "dmc/rsm.hpp"
#include "models/pt100.hpp"
#include "models/zgb.hpp"
#include "rng/counter_rng.hpp"
#include "stats/ks.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

TEST(LPndca, ValidatesArguments) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Lattice lat(6, 6);
  EXPECT_THROW(LPndcaSimulator(m, Configuration(lat, 2, 0),
                               Partition::single_chunk(Lattice(4, 4)), 1, 1),
               std::invalid_argument);
  EXPECT_THROW(LPndcaSimulator(m, Configuration(lat, 2, 0),
                               Partition::single_chunk(lat), 1, 0),
               std::invalid_argument);
}

TEST(LPndca, ExactlyNTrialsPerStep) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Lattice lat(9, 9);  // N = 81, not divisible by L = 10: clipping path
  LPndcaSimulator sim(m, Configuration(lat, 2, 0),
                      Partition::linear_form(lat, 1, 3, 9), 2, 10);
  sim.mc_step();
  EXPECT_EQ(sim.counters().trials, 81u);
  sim.mc_step();
  EXPECT_EQ(sim.counters().trials, 162u);
}

TEST(LPndca, SameSeedSameTrajectory) {
  auto zgb = models::make_zgb();
  const Lattice lat(10, 10);
  const Partition p = Partition::linear_form(lat, 1, 3, 5);
  LPndcaSimulator a(zgb.model, Configuration(lat, 3, zgb.vacant), p, 5, 7);
  LPndcaSimulator b(zgb.model, Configuration(lat, 3, zgb.vacant), p, 5, 7);
  for (int i = 0; i < 25; ++i) {
    a.mc_step();
    b.mc_step();
  }
  EXPECT_EQ(a.configuration(), b.configuration());
}

TEST(LPndca, SingleChunkFullBatchIsRsmEquilibrium) {
  // m = 1, L = N: the degenerate parameters under which L-PNDCA *is* RSM
  // (paper Fig 8) — sites drawn uniformly with replacement, N per step.
  const double ka = 1.0, kd = 0.5;
  const ReactionModel m = ads_des_model(ka, kd);
  const Lattice lat(24, 24);
  LPndcaSimulator sim(m, Configuration(lat, 2, 0), Partition::single_chunk(lat), 6,
                      lat.size());
  sim.advance_to(30.0);
  double avg = 0;
  for (int i = 0; i < 60; ++i) {
    sim.mc_step();
    avg += sim.configuration().coverage(1);
  }
  EXPECT_NEAR(avg / 60, ka / (ka + kd), 0.02);
}

TEST(LPndca, SingletonsUnitBatchIsRsmEquilibrium) {
  // m = N, L = 1: the other exact-RSM limit.
  const double ka = 1.0, kd = 0.5;
  const ReactionModel m = ads_des_model(ka, kd);
  const Lattice lat(24, 24);
  LPndcaSimulator sim(m, Configuration(lat, 2, 0), Partition::singletons(lat), 7, 1);
  sim.advance_to(30.0);
  double avg = 0;
  for (int i = 0; i < 60; ++i) {
    sim.mc_step();
    avg += sim.configuration().coverage(1);
  }
  EXPECT_NEAR(avg / 60, ka / (ka + kd), 0.02);
}

TEST(LPndca, LargeLStillConservesTrialBudget) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Lattice lat(10, 10);
  LPndcaSimulator sim(m, Configuration(lat, 2, 0),
                      Partition::linear_form(lat, 1, 3, 5), 8, 1000000);
  sim.mc_step();  // L is clipped to the remaining budget
  EXPECT_EQ(sim.counters().trials, 100u);
}

TEST(LPndca, AccessorsReportParameters) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  const Lattice lat(10, 10);
  LPndcaSimulator sim(m, Configuration(lat, 2, 0),
                      Partition::linear_form(lat, 1, 3, 5), 9, 42);
  EXPECT_EQ(sim.trials_per_batch(), 42u);
  EXPECT_EQ(sim.partition().num_chunks(), 5u);
  EXPECT_EQ(sim.name(), "L-PNDCA");
}

TEST(LPndca, ZgbCoverageBoundedAndReactive) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 20.0));
  const Lattice lat(30, 30);
  LPndcaSimulator sim(zgb.model, Configuration(lat, 3, zgb.vacant),
                      Partition::linear_form(lat, 1, 3, 5), 10, 100);
  sim.advance_to(15.0);
  const double co = sim.configuration().coverage(zgb.co);
  const double o = sim.configuration().coverage(zgb.o);
  EXPECT_GE(co, 0.0);
  EXPECT_LE(co + o, 1.0);
  // Reactive regime: the surface is not poisoned by either species.
  EXPECT_LT(co, 0.95);
  EXPECT_LT(o, 0.98);
}

// --- The draw law -------------------------------------------------------------
// Trial t of step k draws from its own (k, t) stream word: type from the
// first output, position in the batch's chunk from the second. At a fixed
// seed, over 2^20 trials of one step, the positions must be uniform, the
// types must follow k_i / K, a trial's type and position must be
// independent, and so must the draws of trials t and t + 1, whose keys
// differ by one.

constexpr std::size_t kLawTrials = std::size_t{1} << 20;

/// Types and raw position draws of trials [0, kLawTrials) of step 3.
struct LawDraws {
  std::vector<ReactionIndex> types = std::vector<ReactionIndex>(kLawTrials);
  std::vector<std::uint64_t> draws = std::vector<std::uint64_t>(kLawTrials);
};

LawDraws law_draws(const ReactionModel& model) {
  LawDraws d;
  sample_trials(3, CounterRng::seed_hash(2024), 0, kLawTrials, model.alias_table(),
                d.types.data(), d.draws.data());
  return d;
}

/// The positions the raw draws select in a chunk of `size` sites: the sites
/// chunk_sites reads from a chunk that lists 0, 1, ..., size - 1.
std::vector<std::uint32_t> positions(const LawDraws& d, std::uint32_t size) {
  std::vector<SiteIndex> listed(size);
  std::iota(listed.begin(), listed.end(), SiteIndex{0});
  std::vector<std::uint32_t> pos(kLawTrials);
  chunk_sites(d.draws.data(), kLawTrials, listed.data(), size, pos.data());
  return pos;
}

TEST(LPndcaDrawLaw, PositionsAreUniformInTheChunk) {
  auto zgb = models::make_zgb();
  const LawDraws d = law_draws(zgb.model);
  for (const std::uint32_t size : {1u, 3u, 7u, 1000u}) {
    const std::vector<std::uint32_t> pos = positions(d, size);
    std::vector<double> count(size, 0.0);
    for (const std::uint32_t p : pos) {
      ASSERT_LT(p, size);
      ++count[p];
    }
    if (size == 1) continue;  // every position is 0
    const std::vector<double> expected(size, static_cast<double>(kLawTrials) / size);
    const double chi2 = law::pearson(count, expected);
    EXPECT_GT(stats::chi_square_p(chi2, size - 1), 0.001) << "size " << size << " chi2 " << chi2;
  }
}

TEST(LPndcaDrawLaw, TypesFollowTheRates) {
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  auto pt = models::make_pt100();
  for (const ReactionModel* model : {&zgb.model, &pt.model}) {
    SCOPED_TRACE(model->num_reactions());
    const LawDraws d = law_draws(*model);
    std::vector<double> count(model->num_reactions(), 0.0);
    for (const ReactionIndex t : d.types) ++count[t];
    std::vector<double> expected;
    for (const ReactionType& rt : model->reactions()) {
      expected.push_back(static_cast<double>(kLawTrials) * rt.rate() / model->total_rate());
    }
    const double chi2 = law::pearson(count, expected);
    EXPECT_GT(stats::chi_square_p(chi2, count.size() - 1), 0.001) << "chi2 " << chi2;
  }
}

TEST(LPndcaDrawLaw, TypeAndPositionAreIndependent) {
  // Contingency table of (type, position in a 7-site chunk), tested against
  // the product of its margins.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const LawDraws d = law_draws(zgb.model);
  constexpr std::uint32_t kSize = 7;
  const std::vector<std::uint32_t> pos = positions(d, kSize);
  const std::size_t types = zgb.model.num_reactions();
  std::vector<double> cell(types * kSize, 0.0);
  for (std::size_t i = 0; i < kLawTrials; ++i) ++cell[d.types[i] * kSize + pos[i]];
  EXPECT_GT(law::independence_p(cell, types, kSize), 0.001);
}

TEST(LPndcaDrawLaw, SuccessiveTrialsAreIndependent) {
  // Pair tables of (trial t, trial t + 1): their types, and their positions
  // in a 7-site chunk. Adjacent keys are where fewer mixes would leave
  // correlation.
  auto zgb = models::make_zgb(models::ZgbParams::from_y(0.45, 10.0));
  const LawDraws d = law_draws(zgb.model);
  constexpr std::uint32_t kSize = 7;
  const std::vector<std::uint32_t> pos = positions(d, kSize);
  const std::size_t types = zgb.model.num_reactions();
  std::vector<double> type_pairs(types * types, 0.0), pos_pairs(kSize * kSize, 0.0);
  for (std::size_t i = 0; i + 1 < kLawTrials; ++i) {
    ++type_pairs[d.types[i] * types + d.types[i + 1]];
    ++pos_pairs[pos[i] * kSize + pos[i + 1]];
  }
  EXPECT_GT(law::independence_p(type_pairs, types, types), 0.001);
  EXPECT_GT(law::independence_p(pos_pairs, kSize, kSize), 0.001);
}

}  // namespace
}  // namespace casurf
