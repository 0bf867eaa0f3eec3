#include "dmc/vssm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dmc_bookkeeping.hpp"
#include "models/zgb.hpp"
#include "rng/distributions.hpp"

namespace casurf {
namespace {

ReactionModel ads_des_model(double k_a, double k_d) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", k_a, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", k_d, {exact({0, 0}, 1, 0)}));
  return m;
}

TEST(Vssm, InitialEnabledSetsMatchBruteForce) {
  auto zgb = models::make_zgb();
  Configuration cfg(Lattice(8, 8), 3, zgb.vacant);
  // Seed a few particles so several types are enabled.
  cfg.set(Vec2{1, 1}, zgb.co);
  cfg.set(Vec2{2, 1}, zgb.o);
  cfg.set(Vec2{5, 5}, zgb.o);
  VssmSimulator sim(zgb.model, cfg, 1);
  for (ReactionIndex i = 0; i < zgb.model.num_reactions(); ++i) {
    std::size_t brute = 0;
    for (SiteIndex s = 0; s < cfg.size(); ++s) {
      if (zgb.model.reaction(i).enabled(sim.configuration(), s)) ++brute;
    }
    EXPECT_EQ(sim.enabled_count(i), brute) << zgb.model.reaction(i).name();
  }
}

// The ZGB row of the bookkeeping check; MaskShapes/VssmBookkeeping below
// runs it on every other mask shape.
TEST(Vssm, EnabledSetsStayConsistentAfterManyEvents) {
  auto zgb = models::make_zgb();
  Configuration cfg(Lattice(10, 10), 3, zgb.vacant);
  VssmSimulator sim(zgb.model, std::move(cfg), 2);
  expect_audit_clean_after_every_event(sim, 3000);
}

class VssmBookkeeping : public ::testing::TestWithParam<MaskRow> {};

TEST_P(VssmBookkeeping, AuditIsCleanAfterEveryEvent) {
  const MaskRow& row = GetParam();
  const ReactionModel model = row.make_model();
  VssmSimulator sim(model, random_configuration(model, row.width, row.height, 7), 3);
  expect_audit_clean_after_every_event(sim, 400);
  EXPECT_GT(sim.counters().executed, 0u) << "the row never left its initial state";
}

// The initial sets are built a lattice row at a time; each must hold its
// type's enabled sites in raster order, the layout a per-site build gives
// and the one checkpoints carry.
TEST_P(VssmBookkeeping, InitialSetsAreInRasterOrder) {
  const MaskRow& row = GetParam();
  const ReactionModel model = row.make_model();
  const Configuration cfg = random_configuration(model, row.width, row.height, 7);
  VssmSimulator sim(model, cfg, 3);
  for (ReactionIndex i = 0; i < model.num_reactions(); ++i) {
    std::vector<SiteIndex> raster;
    for (SiteIndex s = 0; s < cfg.size(); ++s) {
      if (model.reaction(i).enabled(cfg, s)) raster.push_back(s);
    }
    const auto items = sim.mutable_enabled_for_test(i).items();
    EXPECT_EQ(std::vector<SiteIndex>(items.begin(), items.end()), raster)
        << model.reaction(i).name();
  }
}

INSTANTIATE_TEST_SUITE_P(MaskShapes, VssmBookkeeping, ::testing::ValuesIn(mask_rows()),
                         [](const auto& row) { return row.param.name; });

TEST(Vssm, OneEventPerStep) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  VssmSimulator sim(m, Configuration(Lattice(8, 8), 2, 0), 3);
  const double t0 = sim.time();
  sim.mc_step();
  EXPECT_EQ(sim.counters().executed, 1u);
  EXPECT_EQ(sim.counters().steps, 1u);
  EXPECT_GT(sim.time(), t0);
}

TEST(Vssm, TotalEnabledRate) {
  const ReactionModel m = ads_des_model(2.0, 0.5);
  VssmSimulator sim(m, Configuration(Lattice(4, 4), 2, 0), 4);
  // All 16 sites vacant: only adsorption enabled.
  EXPECT_DOUBLE_EQ(sim.total_enabled_rate(), 16 * 2.0);
}

TEST(Vssm, EquilibriumCoverage) {
  const double ka = 1.0, kd = 0.5;
  const ReactionModel m = ads_des_model(ka, kd);
  VssmSimulator sim(m, Configuration(Lattice(32, 32), 2, 0), 5);
  sim.advance_to(30.0);
  double avg = 0;
  const int samples = 200;
  for (int i = 0; i < samples; ++i) {
    for (int k = 0; k < 20; ++k) sim.mc_step();
    avg += sim.configuration().coverage(1);
  }
  avg /= samples;
  EXPECT_NEAR(avg, ka / (ka + kd), 0.02);
}

TEST(Vssm, StalledInAbsorbingState) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));  // irreversible
  VssmSimulator sim(m, Configuration(Lattice(4, 4), 2, 0), 6);
  sim.advance_to(1000.0);
  EXPECT_DOUBLE_EQ(sim.configuration().coverage(1), 1.0);
  EXPECT_TRUE(sim.stalled());
  EXPECT_GE(sim.time(), 1000.0);
  // Exactly one event per site was needed.
  EXPECT_EQ(sim.counters().executed, 16u);
}

TEST(Vssm, RatioOfExecutionsFollowsEnabledRates) {
  // Always-enabled no-op reactions: counts must follow the rates.
  ReactionModel m(SpeciesSet({"A"}));
  m.add(ReactionType("r4", 4.0, {exact({0, 0}, 0, 0)}));
  m.add(ReactionType("r1", 1.0, {exact({0, 0}, 0, 0)}));
  VssmSimulator sim(m, Configuration(Lattice(6, 6), 1, 0), 7);
  for (int i = 0; i < 50000; ++i) sim.mc_step();
  const auto& per = sim.counters().executed_per_type;
  const double frac = static_cast<double>(per[0]) /
                      static_cast<double>(per[0] + per[1]);
  EXPECT_NEAR(frac, 0.8, 0.01);
}

TEST(Vssm, SameSeedSameTrajectory) {
  auto zgb = models::make_zgb();
  VssmSimulator a(zgb.model, Configuration(Lattice(8, 8), 3, zgb.vacant), 11);
  VssmSimulator b(zgb.model, Configuration(Lattice(8, 8), 3, zgb.vacant), 11);
  for (int i = 0; i < 500; ++i) {
    a.mc_step();
    b.mc_step();
  }
  EXPECT_EQ(a.configuration(), b.configuration());
  EXPECT_DOUBLE_EQ(a.time(), b.time());
}

TEST(Vssm, SelectTypeSkipsTrailingEmptyBand) {
  // 4x4 all vacant: "ads" enabled everywhere (band 0.25 * 16 = 4), "des"
  // enabled nowhere (band 0). A type draw that fell through to the final
  // type whenever the scaled target consumed every nonzero band would
  // silently waste the event on a type with an empty enabled set.
  const ReactionModel m = ads_des_model(0.25, 1.0);
  VssmSimulator sim(m, Configuration(Lattice(4, 4), 2, 0), 8);
  ASSERT_DOUBLE_EQ(sim.total_enabled_rate(), 4.0);
  const std::vector<double>& bands = sim.type_bands();
  ASSERT_EQ(bands, (std::vector<double>{4.0, 4.0}));
  EXPECT_EQ(sample_cumulative(bands, 0.0), 0u);
  EXPECT_EQ(sample_cumulative(bands, std::nextafter(1.0, 0.0)), 0u);
  EXPECT_EQ(sample_cumulative(bands, 1.0), 0u);  // target == total boundary
}

TEST(Vssm, SelectTypeSkipsInteriorEmptyBand) {
  ReactionModel m(SpeciesSet({"*", "A"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des", 2.0, {exact({0, 0}, 1, 0)}));  // enabled nowhere
  m.add(ReactionType("noop", 1.0, {exact({0, 0}, 0, 0)}));
  VssmSimulator sim(m, Configuration(Lattice(4, 4), 2, 0), 9);
  ASSERT_DOUBLE_EQ(sim.total_enabled_rate(), 32.0);
  const std::vector<double>& bands = sim.type_bands();
  for (int i = 0; i <= 64; ++i) {
    EXPECT_NE(sample_cumulative(bands, i / 64.0), 1u) << "u = " << i / 64.0;
  }
}

TEST(Vssm, EventsNotWastedOnEmptyFinalBand) {
  // Irreversible adsorption plus a never-enabled final type: every step
  // must execute a real adsorption until the lattice is full.
  ReactionModel m(SpeciesSet({"*", "A", "B"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des_b", 5.0, {exact({0, 0}, 2, 0)}));  // no B ever exists
  VssmSimulator sim(m, Configuration(Lattice(4, 4), 3, 0), 11);
  for (int i = 0; i < 16; ++i) sim.mc_step();
  EXPECT_EQ(sim.counters().executed, 16u);
  EXPECT_EQ(sim.counters().executed_per_type[1], 0u);
  EXPECT_DOUBLE_EQ(sim.configuration().coverage(1), 1.0);
}

TEST(Vssm, EventsNeverFireAnEmptyInteriorBand) {
  // Adsorption and desorption of A around a never-enabled middle type:
  // every step fires one of the outer two.
  ReactionModel m(SpeciesSet({"*", "A", "B"}));
  m.add(ReactionType("ads", 1.0, {exact({0, 0}, 0, 1)}));
  m.add(ReactionType("des_b", 5.0, {exact({0, 0}, 2, 0)}));  // no B ever exists
  m.add(ReactionType("des_a", 1.0, {exact({0, 0}, 1, 0)}));
  VssmSimulator sim(m, Configuration(Lattice(4, 4), 3, 0), 12);
  for (int i = 0; i < 5000; ++i) sim.mc_step();
  EXPECT_EQ(sim.counters().executed, 5000u);
  EXPECT_EQ(sim.counters().executed_per_type[1], 0u);
  EXPECT_GT(sim.counters().executed_per_type[2], 0u);
}

// On the hex-vacant 500x500 Pt(100) start that casurf_run builds, one of
// the 39 types (CO_ads_hex) is enabled at every site and the rest at none.
// A position index filled over every site costs each type 1 MB, about
// 39 MB of growth in all; on demand-zero pages only the one type's counts.
TEST(Vssm, TypesNeverEnabledCostNoResidentMemory) {
  if (const std::string why = resident_memory_unmeasurable(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  const models::Pt100Model pt = models::make_pt100();
  const Configuration start(Lattice(500, 500), pt.model.species().size(), pt.hex_vac);
  const double grown_mb =
      resident_growth_mb([&] { return VssmSimulator(pt.model, start, 3); });
  EXPECT_LT(grown_mb, 8.0) << "resident set grew by " << grown_mb << " MB";
}

TEST(Vssm, NameIsVssm) {
  const ReactionModel m = ads_des_model(1.0, 1.0);
  VssmSimulator sim(m, Configuration(Lattice(2, 2), 2, 0), 1);
  EXPECT_EQ(sim.name(), "VSSM");
}

}  // namespace
}  // namespace casurf
